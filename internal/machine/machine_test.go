package machine_test

import (
	"fmt"
	"testing"

	"risc1/internal/machine"
	"risc1/internal/machine/machinetest"
)

// TestConformance runs every registered backend through the shared
// conformance suite — the gate a new machine must pass to ship.
func TestConformance(t *testing.T) {
	ms := machine.Machines()
	if len(ms) < 3 {
		t.Fatalf("registered machines = %d, want at least risc1, cisc, rv32", len(ms))
	}
	for _, b := range ms {
		b := b
		t.Run(b.Name, func(t *testing.T) { machinetest.Run(t, b) })
	}
}

func TestLookupAliases(t *testing.T) {
	cases := map[string]string{
		"":      "risc1",
		"risc1": "risc1",
		"risc":  "risc1",
		"RISC1": "risc1",
		" cisc": "cisc",
		"vax":   "cisc",
		"rv32":  "rv32",
		"riscv": "rv32",
	}
	for in, want := range cases {
		b, ok := machine.Lookup(in)
		if !ok || b.Name != want {
			t.Errorf("Lookup(%q) = %v/%v, want %s", in, b, ok, want)
		}
		got, err := machine.Canonical(in)
		if err != nil || got != want {
			t.Errorf("Canonical(%q) = %q, %v, want %s", in, got, err, want)
		}
	}
	if _, ok := machine.Lookup("pdp11"); ok {
		t.Error("Lookup(pdp11) succeeded")
	}
	if _, err := machine.Canonical("pdp11"); err == nil {
		t.Error("Canonical(pdp11) = nil error")
	}
}

func TestNamesSorted(t *testing.T) {
	names := machine.Names()
	want := []string{"cisc", "risc1", "rv32"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Names() = %v, want %v", names, want)
	}
}

// TestUnwrap pins that bench-style callers can reach the concrete
// simulator and program behind the adapters.
func TestUnwrap(t *testing.T) {
	for _, b := range machine.Machines() {
		m := b.New(machine.Options{})
		if machine.Unwrap(m) == nil {
			t.Errorf("%s: Unwrap(machine) = nil", b.Name)
		}
		if inner := machine.Unwrap(m); inner == m {
			t.Errorf("%s: Unwrap(machine) returned the adapter", b.Name)
		}
		prog, _, _, err := b.Compile("int result; int main() { result = 7; return 0; }", machine.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		if inner := machine.Unwrap(prog); inner == nil || inner == machine.Program(prog) {
			t.Errorf("%s: Unwrap(program) = %v", b.Name, inner)
		}
	}
}

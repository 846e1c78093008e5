package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"risc1/internal/fuel"
)

const specSrc = `
int result;
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { result = fib(12); return 0; }
`

func runSpec(t *testing.T, s Spec) Result {
	t.Helper()
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	results := p.RunBatch(context.Background(), []Job{s.Job("spec", 0)})
	return results[0]
}

func TestSpecRISC(t *testing.T) {
	res := runSpec(t, Spec{Name: "fib", Source: specSrc, Opt: 1, DelaySlots: true})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := res.Value.(Outcome)
	if out.Value != 144 {
		t.Errorf("fib(12) = %d, want 144", out.Value)
	}
	if out.Report.Workload != "fib" || out.Report.Machine == "" {
		t.Errorf("report not stamped: %+v", out.Report)
	}
	if out.Report.ICache != nil {
		t.Error("pool-produced report must clear the host icache section")
	}
	if !out.Report.Config.Optimized || out.Report.Config.OptLevel != 1 {
		t.Errorf("report config = %+v, want optimized at -O1", out.Report.Config)
	}
}

func TestSpecCISC(t *testing.T) {
	res := runSpec(t, Spec{Name: "fib", Machine: "cisc", Source: specSrc, Opt: 1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if out := res.Value.(Outcome); out.Value != 144 {
		t.Errorf("fib(12) = %d, want 144", out.Value)
	}
}

func TestSpecUnknownMachine(t *testing.T) {
	res := runSpec(t, Spec{Source: specSrc, Machine: "pdp11"})
	if res.Err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestSpecFuelExhausted(t *testing.T) {
	for _, m := range []string{"risc1", "cisc", "rv32"} {
		res := runSpec(t, Spec{Name: "starved", Machine: m, Source: specSrc, Fuel: 50})
		if res.Err == nil {
			t.Fatalf("%s: fuel-starved run succeeded", m)
		}
		if !errors.Is(res.Err, fuel.ErrExhausted) {
			t.Errorf("%s: error %v not recognized as fuel exhaustion", m, res.Err)
		}
	}
}

func TestSpecCompileError(t *testing.T) {
	res := runSpec(t, Spec{Source: "int main() { return undeclared; }"})
	var ce *CompileError
	if !errors.As(res.Err, &ce) {
		t.Fatalf("error = %v, want *CompileError", res.Err)
	}
	if errors.Is(res.Err, fuel.ErrExhausted) {
		t.Error("compile error misread as fuel exhaustion")
	}
}

func TestSpecDeadline(t *testing.T) {
	// An infinite guest loop must be stopped by the wall-clock timeout,
	// not run forever: this is the cooperative-cancellation path through
	// cpu.RunContext.
	src := `int result; int main() { while (1) { result = result + 1; } return 0; }`
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	s := Spec{Name: "spin", Source: src}
	results := p.RunBatch(context.Background(), []Job{s.Job("spin", 30*time.Millisecond)})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want context.DeadlineExceeded", results[0].Err)
	}
}

// TestSimReuseNoLeakage runs a state-heavy program on a fresh Sims,
// then a different program, then the first again on the same Sims: the
// third run's report must equal the first's exactly. Any residue the
// second program left in memory, registers, window state or statistics
// would show up as a difference.
func TestSimReuseNoLeakage(t *testing.T) {
	first := Spec{Name: "fib", Source: specSrc, Opt: 1, DelaySlots: true, Fuel: 1 << 22}
	second := Spec{Name: "scribble", Opt: 1, DelaySlots: true, Source: `
int result;
int scratch;
int main() {
	int i;
	for (i = 0; i < 500; i = i + 1) { scratch = scratch + i * 7; }
	result = scratch;
	return 0;
}
`}
	sims := NewSims()
	ctx := context.Background()
	a, err := first.Run(ctx, sims)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Run(ctx, sims); err != nil {
		t.Fatal(err)
	}
	b, err := first.Run(ctx, sims)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Fatalf("reused simulator changed the result: %d vs %d", a.Value, b.Value)
	}
	aj, err := a.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("reused simulator changed the report:\nfirst:\n%s\nthird:\n%s", aj, bj)
	}
}

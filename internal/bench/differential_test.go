package bench

import (
	"testing"

	"risc1/internal/cc"
	"risc1/internal/machine"
)

// TestOptLevelsAgreeOnAllWorkloads is the optimizer's differential
// acceptance test: for every benchmark workload, compiling at -O0 and
// -O1 must produce identical guest-visible results on all three
// simulators. (RunOn already compares each run against the Go
// reference value, so this also re-checks correctness at both levels.)
func TestOptLevelsAgreeOnAllWorkloads(t *testing.T) {
	for _, w := range Suite(Small()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, b := range []*machine.Backend{riscBackend, ciscBackend, rv32Backend} {
				r0 := run(t, b, w, machine.Options{DelaySlots: true, Opt: 0})
				r1 := run(t, b, w, machine.Options{DelaySlots: true, Opt: 1})
				if r0.Result != r1.Result {
					t.Errorf("%s: -O0 result %d != -O1 result %d", b.Name, r0.Result, r1.Result)
				}
				if i0, i1 := r0.Report.Totals.Instructions, r1.Report.Totals.Instructions; i1 > i0 {
					t.Errorf("%s: -O1 executed more instructions than -O0 (%d vs %d)", b.Name, i1, i0)
				}
			}
		})
	}
}

// TestOptShrinksStaticCode pins the optimizer's static effect: -O1 code
// must be strictly smaller than -O0 code for the CISC baseline on every
// workload (the optimizer moved machine-independent work out of the
// RISC generator, so the baseline now benefits equally), and no larger
// for RISC.
func TestOptShrinksStaticCode(t *testing.T) {
	for _, w := range Suite(Small()) {
		v0, _, _, err := cc.CompileVAX(w.Source, cc.Options{Opt: 0})
		if err != nil {
			t.Fatalf("%s vax -O0: %v", w.Name, err)
		}
		v1, _, _, err := cc.CompileVAX(w.Source, cc.Options{Opt: 1})
		if err != nil {
			t.Fatalf("%s vax -O1: %v", w.Name, err)
		}
		if v1.TextSize >= v0.TextSize {
			t.Errorf("%s: vax -O1 text %d bytes, not smaller than -O0's %d",
				w.Name, v1.TextSize, v0.TextSize)
		}
		r0, _, _, err := cc.CompileRISC(w.Source, cc.Options{Opt: 0, DelaySlots: true})
		if err != nil {
			t.Fatalf("%s risc -O0: %v", w.Name, err)
		}
		r1, _, _, err := cc.CompileRISC(w.Source, cc.Options{Opt: 1, DelaySlots: true})
		if err != nil {
			t.Fatalf("%s risc -O1: %v", w.Name, err)
		}
		if r1.TextSize > r0.TextSize {
			t.Errorf("%s: risc -O1 text %d bytes, larger than -O0's %d",
				w.Name, r1.TextSize, r0.TextSize)
		}
	}
}

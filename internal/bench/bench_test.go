package bench

import (
	"context"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/machine"
)

// run is RunOn outside a pool, failing the test on error.
func run(t *testing.T, b *machine.Backend, w Workload, o machine.Options) Run {
	t.Helper()
	r, err := RunOn(context.Background(), nil, b, w, o)
	if err != nil {
		t.Fatalf("%s options %+v: %v", b.Name, o, err)
	}
	return r
}

// TestSuiteCorrectness is the central integration test: every benchmark
// must produce the Go reference result on all three simulators,
// optimized and not, with and without windows.
func TestSuiteCorrectness(t *testing.T) {
	for _, w := range Suite(Small()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, o := range []machine.Options{
				{},
				{Opt: 1},
				{DelaySlots: true, Opt: 1},
				{Windows: 3, DelaySlots: true, Opt: 1},
				{NoWindows: true},
			} {
				if r := run(t, riscBackend, w, o); r.Result != w.Expected {
					t.Fatalf("risc options %+v: result %d, want %d", o, r.Result, w.Expected)
				}
			}
			for _, lvl := range []int{0, 1} {
				if vx := run(t, ciscBackend, w, machine.Options{Opt: lvl}); vx.Result != w.Expected {
					t.Fatalf("vax -O%d result %d, want %d", lvl, vx.Result, w.Expected)
				}
				if rv := run(t, rv32Backend, w, machine.Options{Opt: lvl}); rv.Result != w.Expected {
					t.Fatalf("rv32 -O%d result %d, want %d", lvl, rv.Result, w.Expected)
				}
			}
		})
	}
}

func TestShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is slow")
	}
	cs, err := CompareAll(Suite(Small()))
	if err != nil {
		t.Fatal(err)
	}

	var sizeRatioSum, speedSum float64
	for _, c := range cs {
		sizeRatio := float64(c.Risc.TextBytes) / float64(c.Vax.TextBytes)
		risc, vax := c.Risc.Report.Totals, c.Vax.Report.Totals
		speed := vax.Micros / risc.Micros
		sizeRatioSum += sizeRatio
		speedSum += speed
		if sizeRatio < 0.8 {
			t.Errorf("%s: RISC code unexpectedly smaller than CISC (%.2f)", c.Workload.Name, sizeRatio)
		}
		if risc.Instructions <= vax.Instructions/2 {
			t.Errorf("%s: RISC should execute more instructions (%d vs %d)",
				c.Workload.Name, risc.Instructions, vax.Instructions)
		}
	}
	avgSize := sizeRatioSum / float64(len(cs))
	avgSpeed := speedSum / float64(len(cs))
	// The paper's headline shapes.
	if avgSize < 1.0 || avgSize > 2.5 {
		t.Errorf("average RISC/CISC code-size ratio %.2f outside the paper's 1-2.5x band", avgSize)
	}
	if avgSpeed < 1.3 {
		t.Errorf("average RISC speedup %.2f; the paper reports a clear win (2-4x)", avgSpeed)
	}
}

func TestWindowSweepShape(t *testing.T) {
	sweep, err := SweepWindows(Suite(Small()), []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rate) != 3 || len(sweep.Workloads) == 0 {
		t.Fatalf("unexpected sweep shape: %+v", sweep)
	}
	for j := range sweep.Workloads {
		r2, r4, r8 := sweep.Rate[0][j], sweep.Rate[1][j], sweep.Rate[2][j]
		if r2 != 1.0 {
			t.Errorf("%s: 2 windows must overflow on every call, got %.2f", sweep.Workloads[j], r2)
		}
		if !(r4 >= r8) {
			t.Errorf("%s: overflow rate should not rise with windows (%f -> %f)", sweep.Workloads[j], r4, r8)
		}
		if r8 > 0.25 {
			t.Errorf("%s: at 8 windows the rate should be small, got %.2f", sweep.Workloads[j], r8)
		}
	}
}

func TestCallCostOrdering(t *testing.T) {
	costs, err := MeasureCallCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 4 {
		t.Fatalf("want 4 machines, got %d", len(costs))
	}
	windows, noWindows, cisc, rv := costs[0], costs[1], costs[2], costs[3]
	if !(windows.CyclesPerCall < noWindows.CyclesPerCall) {
		t.Errorf("windows (%f cy) should beat no-windows (%f cy)",
			windows.CyclesPerCall, noWindows.CyclesPerCall)
	}
	if !(windows.MicrosPerCall < cisc.MicrosPerCall) {
		t.Errorf("windows (%f µs) should beat CALLS (%f µs)",
			windows.MicrosPerCall, cisc.MicrosPerCall)
	}
	if windows.MemWordsPer > 1 {
		t.Errorf("windowed calls should move almost no memory, got %.2f words/call", windows.MemWordsPer)
	}
	if cisc.MemWordsPer < 5 {
		t.Errorf("CALLS should move a whole frame, got %.2f words/call", cisc.MemWordsPer)
	}
	if !(rv.MemWordsPer > windows.MemWordsPer) {
		t.Errorf("rv32 calls push frames to memory, so should move more than windowed RISC (%.2f vs %.2f words/call)",
			rv.MemWordsPer, windows.MemWordsPer)
	}
	if !(windows.CyclesPerCall < rv.CyclesPerCall) {
		t.Errorf("windows (%f cy) should beat rv32 stack frames (%f cy)",
			windows.CyclesPerCall, rv.CyclesPerCall)
	}
}

func TestDelaySlotOptimizerHelps(t *testing.T) {
	suite := Suite(Small())
	w, _ := ByName(suite, "sieve")
	o := machine.Options{DelaySlots: true, Opt: 1}
	plain := run(t, riscBackend, w, machine.Options{Opt: 1}).Report
	opt := run(t, riscBackend, w, o).Report
	prog, _, _, err := riscBackend.Compile(w.Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if machine.Unwrap(prog).(*asm.Program).Slots.Filled == 0 {
		t.Error("optimizer filled no slots")
	}
	if opt.Totals.Instructions >= plain.Totals.Instructions {
		t.Errorf("optimizer should cut dynamic instructions: %d vs %d", opt.Totals.Instructions, plain.Totals.Instructions)
	}
	if opt.Control.DelaySlotNops >= plain.Control.DelaySlotNops {
		t.Errorf("optimizer should cut dynamic NOPs: %d vs %d",
			opt.Control.DelaySlotNops, plain.Control.DelaySlotNops)
	}
}

func TestAblationOrdering(t *testing.T) {
	suite := []Workload{}
	for _, w := range Suite(Small()) {
		if w.Name == "fib" || w.Name == "hanoi" {
			suite = append(suite, w)
		}
	}
	rows, err := RunAblation(suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.Full <= r.NoOpt) {
			t.Errorf("%s: removing the optimizer should not speed things up (%d vs %d)", r.Name, r.Full, r.NoOpt)
		}
		if !(r.Full < r.NoWindows) {
			t.Errorf("%s: removing windows should cost cycles (%d vs %d)", r.Name, r.Full, r.NoWindows)
		}
		if !(r.NoWindowsNoOpt >= r.NoWindows) {
			t.Errorf("%s: the stripped machine should be slowest", r.Name)
		}
	}
}

func TestTablesRender(t *testing.T) {
	cs, err := CompareAll(Suite(Small())[:3])
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name, out, want string
	}{
		{"T1", TableInstructionSet(), "ldhi"},
		{"T2", TableMachines(), "register windows"},
		{"T3", TableSuite(Suite(Small())), "sieve"},
		{"T4", TableCodeSize(cs), "RISC/CISC"},
		{"T5", TableExecTime(cs), "CISC/RISC time"},
		{"T6", TableMix(cs), "alu"},
		{"F2", FigDelaySlots(cs), "fill rate"},
	}
	for _, c := range checks {
		if !strings.Contains(c.out, c.want) {
			t.Errorf("%s: missing %q in output:\n%s", c.name, c.want, c.out)
		}
		if strings.Contains(c.out, "%!") {
			t.Errorf("%s: bad format verb:\n%s", c.name, c.out)
		}
	}
}

func TestByName(t *testing.T) {
	suite := Suite(Small())
	if _, ok := ByName(suite, "fib"); !ok {
		t.Error("fib should exist")
	}
	if _, ok := ByName(suite, "nope"); ok {
		t.Error("nope should not exist")
	}
}

func TestSuiteSize(t *testing.T) {
	// The paper's eleven programs plus the pointer variant of Puzzle.
	if n := len(Suite(Small())); n != 12 {
		t.Errorf("suite has %d programs, want 12", n)
	}
}

func TestPointerAndSubscriptPuzzleAgree(t *testing.T) {
	suite := Suite(Small())
	sub, _ := ByName(suite, "puzzle")
	ptr, _ := ByName(suite, "puzzle-ptr")
	if sub.Expected != ptr.Expected {
		t.Fatalf("variants disagree before running: %d vs %d", sub.Expected, ptr.Expected)
	}
	a := run(t, riscBackend, sub, machine.Options{DelaySlots: true, Opt: 1})
	b := run(t, riscBackend, ptr, machine.Options{DelaySlots: true, Opt: 1})
	if a.Result != b.Result {
		t.Errorf("subscript %d != pointer %d", a.Result, b.Result)
	}
}

func TestDepthHistogramFigure(t *testing.T) {
	suite := Suite(Small())
	w, _ := ByName(suite, "fib")
	c, err := Compare(w)
	if err != nil {
		t.Fatal(err)
	}
	out := FigDepthHistogram([]Comparison{c})
	if !strings.Contains(out, "fib") || !strings.Contains(out, "max depth") {
		t.Errorf("figure:\n%s", out)
	}
	// fib(12) nests 11 deep; the cumulative shares must be monotone.
	win := c.Risc.Report.Windows
	if win.MaxDepth < 10 {
		t.Errorf("max depth = %d", win.MaxDepth)
	}
	var total uint64
	for _, n := range win.DepthHist {
		total += n
	}
	if total != win.Calls {
		t.Errorf("histogram total %d != calls %d", total, win.Calls)
	}
}

// TestPaperScaleAckermann runs the paper's original Ackermann(3,6) input
// end-to-end (skipped with -short: it executes several million guest
// instructions and nests ~2500 activations deep).
func TestPaperScaleAckermann(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale ackermann is slow")
	}
	w := Workload{
		Name:      "ackermann-3-6",
		Source:    srcAckermann(3, 6),
		Expected:  refAckermann(3, 6),
		CallHeavy: true,
	}
	r := run(t, riscBackend, w, machine.Options{DelaySlots: true, Opt: 1})
	if r.Result != 509 {
		t.Fatalf("ack(3,6) = %d, want 509", r.Result)
	}
	if win := r.Report.Windows; win.MaxDepth < 500 {
		t.Errorf("max depth = %d; expected deep nesting", win.MaxDepth)
	}
	if r.Report.Windows.Overflows == 0 {
		t.Error("deep recursion must overflow")
	}
}

func TestOpFrequencyTable(t *testing.T) {
	cs, err := CompareAll(Suite(Small())[:2])
	if err != nil {
		t.Fatal(err)
	}
	out := TableOpFrequency(cs)
	if !strings.Contains(out, "add") || !strings.Contains(out, "cumulative") {
		t.Errorf("table:\n%s", out)
	}
}

func TestWindowTimeFigure(t *testing.T) {
	sweep, err := SweepWindows(Suite(Small()), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	out := FigWindowTime(sweep)
	if !strings.Contains(out, "F4.") || !strings.Contains(out, "(w=2 vs w=8)") {
		t.Errorf("figure:\n%s", out)
	}
	// Two windows must never be faster than eight.
	for j := range sweep.Workloads {
		if sweep.Micros[0][j] < sweep.Micros[1][j] {
			t.Errorf("%s: w=2 (%f µs) beat w=8 (%f µs)",
				sweep.Workloads[j], sweep.Micros[0][j], sweep.Micros[1][j])
		}
	}
}

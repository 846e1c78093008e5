package cpu

import (
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/obs"
)

// TestHotLoopAllocFreeObserverOff guards the observability layer's
// compile-to-nil contract: with no observer attached, the straight-line
// interpreter loop allocates nothing per instruction. The test program
// makes no calls so the loop path is isolated;
// TestWindowTrapsAllocFree covers calls.
func TestHotLoopAllocFreeObserverOff(t *testing.T) {
	prog, err := asm.Assemble(`
main:	add r1, r0, 0
loop:	add r1, r1, 1
	ba loop
	nop
	`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // warm the icache
		c.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { c.Step() })
	if allocs != 0 {
		t.Errorf("Step allocates %.2f objects per instruction with Obs=nil, want 0", allocs)
	}
}

// TestWindowTrapsAllocFree: a recursion on two windows overflows (and
// later underflows) on every call, and stepping through it allocates
// nothing — the spill travels in the register file's own buffer.
func TestWindowTrapsAllocFree(t *testing.T) {
	prog, err := asm.Assemble(strings.Replace(fibSrc, "N, 12", "N, 20", 1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Windows: 2})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	c.StepN(4096) // warm the icache and the save-stack pages
	before := c.Regs.Stats
	allocs := testing.AllocsPerRun(100, func() { c.StepN(256) })
	if halted, err := c.Halted(); halted {
		t.Fatalf("fib(20) halted inside the measured steps: %v", err)
	}
	calls := c.Regs.Stats.Calls - before.Calls
	if over := c.Regs.Stats.Overflows - before.Overflows; over == 0 || over != calls {
		t.Fatalf("%d overflows in %d calls, want one per call", over, calls)
	}
	if c.Regs.Stats.Underflows == before.Underflows {
		t.Fatal("no underflows in the measured steps")
	}
	if allocs != 0 {
		t.Errorf("256 steps of a two-window recursion allocate %.0f objects, want 0", allocs)
	}
}

// BenchmarkStep measures the per-instruction interpreter cost with the
// observability layer detached — the baseline the tentpole's <2%
// regression budget is judged against. Run with -benchmem: the
// allocation column must stay 0.
func BenchmarkStep(b *testing.B) {
	prog, err := asm.Assemble(`
main:	add r1, r0, 0
loop:	add r1, r1, 1
	ba loop
	nop
	`, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c := New(Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// observedRun executes src with a full observer (tracer + profiler)
// attached and returns the CPU and observer.
func observedRun(t *testing.T, src string, cfg Config, sink obs.Sink) (*CPU, *obs.Observer) {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(cfg)
	o := &obs.Observer{Tracer: obs.NewTracer(0, sink), Prof: obs.NewProfiler()}
	c.Obs = o
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	o.Prof.Start(prog.Entry)
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := o.Finish(); err != nil {
		t.Fatalf("observer: %v", err)
	}
	return c, o
}

// TestObserverDoesNotPerturbSimulation runs the same program with and
// without the observer and asserts every simulated number is identical.
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	c1 := run(t, fibSrc, Config{})
	c2, _ := observedRun(t, fibSrc, Config{}, nil)
	if c1.Trace.Cycles != c2.Trace.Cycles || c1.Trace.Instructions != c2.Trace.Instructions {
		t.Errorf("observer changed accounting: %d/%d cycles, %d/%d instructions",
			c1.Trace.Cycles, c2.Trace.Cycles, c1.Trace.Instructions, c2.Trace.Instructions)
	}
	if c1.Stats != c2.Stats {
		t.Errorf("observer changed stats:\nplain    %+v\nobserved %+v", c1.Stats, c2.Stats)
	}
	if c1.Regs.Stats != c2.Regs.Stats {
		t.Errorf("observer changed window stats:\nplain    %+v\nobserved %+v", c1.Regs.Stats, c2.Regs.Stats)
	}
}

// TestProfilerAccountsEveryCycle asserts the profiler's conservation
// law: sampled cycles plus trap overhead equal the collector's total.
func TestProfilerAccountsEveryCycle(t *testing.T) {
	// Two windows force spills/refills on the recursive calls, so trap
	// overhead is exercised too.
	c, o := observedRun(t, fibSrc, Config{Windows: 2}, nil)
	if got, want := o.Prof.TotalCycles(), c.Trace.Cycles; got != want {
		t.Errorf("profiler total = %d cycles, collector = %d", got, want)
	}
	if c.Stats.TrapCycles == 0 {
		t.Fatal("expected window traps with 2 windows")
	}
	if got, want := o.Prof.TrapCycles(), c.Stats.TrapCycles; got != want {
		t.Errorf("profiler trap cycles = %d, cpu = %d", got, want)
	}
}

// TestProfilerFunctionAttribution checks the per-function table: fib is
// called the textbook number of times and dominates the profile, and
// main's cumulative cycles cover the entire run.
func TestProfilerFunctionAttribution(t *testing.T) {
	prog, err := asm.Assemble(fibSrc, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, o := observedRun(t, fibSrc, Config{}, nil)
	symtab := obs.NewSymTab(prog.Symbols)
	funcs := o.Prof.Functions(symtab.Namer())
	byName := map[string]obs.FuncRow{}
	for _, f := range funcs {
		byName[f.Name] = f
	}
	// fib(12) makes 465 calls: calls(n) = calls(n-1)+calls(n-2)+2.
	fib, ok := byName["fib"]
	if !ok {
		t.Fatalf("no fib row in %+v", funcs)
	}
	if fib.Calls != 465 {
		t.Errorf("fib calls = %d, want 465", fib.Calls)
	}
	mainRow, ok := byName["main"]
	if !ok {
		t.Fatalf("no main row in %+v", funcs)
	}
	if mainRow.Cum != c.Trace.Cycles {
		t.Errorf("main cumulative = %d, want the whole run (%d)", mainRow.Cum, c.Trace.Cycles)
	}
	if fib.Flat <= mainRow.Flat {
		t.Errorf("fib flat (%d) should dominate main flat (%d)", fib.Flat, mainRow.Flat)
	}
}

// TestTracerEventStream checks kinds, ordering and delay-slot marking
// in the ring buffer for a call/return round trip.
func TestTracerEventStream(t *testing.T) {
	_, o := observedRun(t, `
main:	add r10, r0, 20
	add r11, r0, 22
	call addfn
	nop
	add r1, r10, 0
	ret
	nop
addfn:	add r26, r26, r27
	ret
	nop
	`, Config{}, nil)
	var kinds []string
	var slotSeen bool
	for _, ev := range o.Tracer.Ring() {
		if ev.Kind != obs.KindInstr {
			kinds = append(kinds, ev.Kind.String())
		}
		if ev.Slot {
			slotSeen = true
		}
	}
	want := []string{"call", "return"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("non-instr event kinds = %v, want %v", kinds, want)
	}
	if !slotSeen {
		t.Error("no instruction was marked as a delay-slot execution")
	}
	// 9 executed instructions + call + return (the final halting ret
	// emits no return event and skips its slot).
	if got := o.Tracer.Events(); got != 11 {
		t.Errorf("event count = %d, want 11", got)
	}
}

// TestTracerWindowTrapEvents asserts spill/refill events carry the word
// counts the paper's memory-traffic argument is built on.
func TestTracerWindowTrapEvents(t *testing.T) {
	_, o := observedRun(t, fibSrc, Config{Windows: 2}, nil)
	var spills, refills int
	for _, ev := range o.Tracer.Ring() {
		switch ev.Kind {
		case obs.KindSpill:
			spills++
			if ev.Words == 0 || ev.Cost == 0 {
				t.Fatalf("spill event missing words/cost: %+v", ev)
			}
		case obs.KindRefill:
			refills++
		}
	}
	if spills == 0 || refills == 0 {
		t.Errorf("spills = %d, refills = %d; want both > 0 in the ring tail", spills, refills)
	}
}

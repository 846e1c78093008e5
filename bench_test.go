// Package risc1 hosts the top-level benchmark harness: one testing.B
// entry per reproduced table and figure of the RISC I paper, plus raw
// simulator-throughput benchmarks. Run with:
//
//	go test -bench=. -benchmem
package risc1

import (
	"context"
	"reflect"
	"testing"

	"risc1/internal/bench"
	"risc1/internal/cc"
	"risc1/internal/cpu"
	"risc1/internal/machine"
	"risc1/internal/vax"
)

// TestICacheDeterminism asserts the predecoded instruction cache's core
// invariant on every backend: predecoding changes host speed only.
// Every simulated observable — result, cycles, instruction counts,
// window and CPU stats, instruction-stream bytes, mixes, call-depth
// histogram, data traffic — must be byte-identical with the cache on
// and off.
func TestICacheDeterminism(t *testing.T) {
	for _, b := range machine.Machines() {
		for _, name := range []string{"hanoi", "ackermann", "sieve"} {
			w, ok := bench.ByName(benchSuite, name)
			if !ok {
				t.Fatalf("no %s workload", name)
			}
			on, err := bench.RunOn(context.Background(), nil, b, w, machine.Options{DelaySlots: true, Opt: 1})
			if err != nil {
				t.Fatal(err)
			}
			off, err := bench.RunOn(context.Background(), nil, b, w, machine.Options{DelaySlots: true, Opt: 1, NoICache: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("%s/%s: simulated results diverge with icache on/off:\non:  %+v\noff: %+v", b.Name, name, on, off)
			}
		}
	}
}

// benchSuite is the shared small-scale suite (paper-scale inputs are for
// cmd/risc1-bench; the benchmarks here must finish quickly).
var benchSuite = bench.Suite(bench.Small())

// BenchmarkTableInstructionSet regenerates T1 (instruction-set table).
func BenchmarkTableInstructionSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.TableInstructionSet(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableMachines regenerates T2 (machine characteristics).
func BenchmarkTableMachines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.TableMachines(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableSuite regenerates T3 (benchmark listing).
func BenchmarkTableSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.TableSuite(benchSuite); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// compareOnce runs the full suite on both machines (T4/T5/T6/F2 input).
func compareOnce(b *testing.B) []bench.Comparison {
	b.Helper()
	cs, err := bench.CompareAll(benchSuite)
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkTableCodeSize regenerates T4 (static code size).
func BenchmarkTableCodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.TableCodeSize(cs); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableExecTime regenerates T5 (execution time).
func BenchmarkTableExecTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.TableExecTime(cs); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableMix regenerates T6 (dynamic instruction mix).
func BenchmarkTableMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.TableMix(cs); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigWindowSweep regenerates F1 (overflow rate vs windows).
func BenchmarkFigWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := bench.SweepWindows(benchSuite, []int{2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if out := bench.FigWindowSweep(sweep); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigDelaySlots regenerates F2 (delayed-jump optimization).
func BenchmarkFigDelaySlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.FigDelaySlots(cs); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTableCallCost regenerates T7 (per-call cost).
func BenchmarkTableCallCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costs, err := bench.MeasureCallCost()
		if err != nil {
			b.Fatal(err)
		}
		if out := bench.TableCallCost(costs); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableTraffic regenerates T8 (call memory traffic).
func BenchmarkTableTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.TableTraffic(cs); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigAblation regenerates A1 (design-feature ablation).
func BenchmarkFigAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAblation(benchSuite)
		if err != nil {
			b.Fatal(err)
		}
		if out := bench.FigAblation(rows); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkRiscSimulator measures raw simulated instructions/second on a
// compute-bound workload.
func BenchmarkRiscSimulator(b *testing.B) {
	w, ok := bench.ByName(benchSuite, "sieve")
	if !ok {
		b.Fatal("no sieve")
	}
	prog, _, _, err := cc.CompileRISC(w.Source, cc.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		c := cpu.New(cpu.Config{})
		c.Reset(prog.Entry)
		if err := prog.LoadInto(c.Mem); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		instr = c.Trace.Instructions
	}
	b.ReportMetric(float64(instr), "guest-instr/op")
}

// benchRiscWorkload measures raw host throughput of the RISC simulator
// on one workload, with the predecoded instruction cache on or off.
// Paper-scale inputs are used so per-run setup (allocating and zeroing
// the 1 MiB simulated memory) amortizes away and the number measures the
// interpreter loop itself.
func benchRiscWorkload(b *testing.B, name string, noICache bool) {
	b.Helper()
	w, ok := bench.ByName(bench.Suite(bench.Default()), name)
	if !ok {
		b.Fatalf("no %s workload", name)
	}
	prog, _, _, err := cc.CompileRISC(w.Source, cc.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		c := cpu.New(cpu.Config{NoICache: noICache})
		c.Reset(prog.Entry)
		if err := prog.LoadInto(c.Mem); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		instr = c.Trace.Instructions
	}
	b.ReportMetric(float64(instr), "guest-instr/op")
}

// BenchmarkRiscHanoi compares the interpreter's host speed with and
// without the predecoded instruction cache on the hanoi workload.
// Simulated cycles are identical in both variants (TestICacheDeterminism
// asserts it); only the host-time column should differ.
func BenchmarkRiscHanoi(b *testing.B) {
	b.Run("icache", func(b *testing.B) { benchRiscWorkload(b, "hanoi", false) })
	b.Run("nocache", func(b *testing.B) { benchRiscWorkload(b, "hanoi", true) })
}

// BenchmarkRiscAckermann is the same comparison on the call-stress test.
func BenchmarkRiscAckermann(b *testing.B) {
	b.Run("icache", func(b *testing.B) { benchRiscWorkload(b, "ackermann", false) })
	b.Run("nocache", func(b *testing.B) { benchRiscWorkload(b, "ackermann", true) })
}

// BenchmarkVaxSimulator is the CISC counterpart.
func BenchmarkVaxSimulator(b *testing.B) {
	w, ok := bench.ByName(benchSuite, "sieve")
	if !ok {
		b.Fatal("no sieve")
	}
	prog, _, _, err := cc.CompileVAX(w.Source, cc.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		c := vax.New(vax.Config{})
		c.Reset(prog.Entry)
		if err := prog.LoadInto(c.Mem); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		instr = c.Trace.Instructions
	}
	b.ReportMetric(float64(instr), "guest-instr/op")
}

// BenchmarkCompilerRisc measures MiniC -> RISC compile+assemble speed.
func BenchmarkCompilerRisc(b *testing.B) {
	w, _ := bench.ByName(benchSuite, "qsort")
	for i := 0; i < b.N; i++ {
		if _, _, _, err := cc.CompileRISC(w.Source, cc.DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilerVax measures MiniC -> CISC compile+assemble speed.
func BenchmarkCompilerVax(b *testing.B) {
	w, _ := bench.ByName(benchSuite, "qsort")
	for i := 0; i < b.N; i++ {
		if _, _, _, err := cc.CompileVAX(w.Source, cc.DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigDepthHistogram regenerates F3 (call-depth profile).
func BenchmarkFigDepthHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.FigDepthHistogram(cs); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTableOpFrequency regenerates T9 (instruction frequency).
func BenchmarkTableOpFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareOnce(b)
		if out := bench.TableOpFrequency(cs); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

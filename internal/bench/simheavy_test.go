package bench

import (
	"context"
	"testing"

	"risc1/internal/machine"
)

// simHeavyParams is the scale of perfbench's sim-heavy program set
// (each run simulates for about 0.2–4 ms). It is copied rather than
// imported, so the serving benchmark's module stays independent.
var simHeavyParams = Params{
	SieveIters:  1,
	FibN:        14,
	HanoiDiscs:  9,
	AckM:        3,
	AckN:        3,
	QsortSize:   80,
	SearchIters: 2,
	BitIters:    200,
	ListSize:    50,
	MatrixIters: 1,
	MatN:        8,
	PuzzleBoard: 10,
}

// simHeavySkip leaves out the two programs sim-heavy leaves out: even
// at one pass they simulate for 10–90 ms and would dominate the set.
var simHeavySkip = map[string]bool{"k-bitmatrix": true, "sieve": true}

// BenchmarkSimHeavy is the simulate layer of the sim-heavy serving
// workload: each op runs the whole program set once on one machine —
// Reset, LoadInto, Run and a result check per program, on one reused
// simulator, with the programs compiled once up front. MIPS is guest
// instructions per host microsecond.
func BenchmarkSimHeavy(b *testing.B) {
	for _, name := range []string{"risc1", "cisc", "rv32"} {
		b.Run(name, func(b *testing.B) {
			be := backend(name)
			o := be.Normalize(machine.Options{Opt: 1, DelaySlots: true})
			type compiled struct {
				w      Workload
				prog   machine.Program
				result uint32
			}
			var progs []compiled
			for _, w := range Suite(simHeavyParams) {
				if simHeavySkip[w.Name] {
					continue
				}
				prog, _, _, err := be.Compile(w.Source, o)
				if err != nil {
					b.Fatal(err)
				}
				addr, ok := prog.Symbol("result")
				if !ok {
					b.Fatalf("%s: no global named result", w.Name)
				}
				progs = append(progs, compiled{w, prog, addr})
			}
			m := be.New(o)
			b.ReportAllocs()
			b.ResetTimer()
			var instr uint64
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					m.Reset(p.prog.Entry())
					if err := p.prog.LoadInto(m.Mem()); err != nil {
						b.Fatal(err)
					}
					if err := m.RunContext(context.Background()); err != nil {
						b.Fatal(err)
					}
					if v, err := m.Mem().LoadWord(p.result); err != nil || int32(v) != p.w.Expected {
						b.Fatalf("%s: result %d (%v), want %d", p.w.Name, int32(v), err, p.w.Expected)
					}
					instr += m.Instructions()
				}
			}
			b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}

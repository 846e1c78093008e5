// Package opt is the machine-independent optimization pipeline over
// the shared IR. Every pass is a pure function on a single ir.Func
// that returns how many rewrites it performed; the driver iterates the
// whole pipeline to a fixpoint (a round in which no pass rewrites
// anything). Because the passes run before either backend sees the
// program, both the RISC I and the CISC generators receive identically
// optimized input — the optimization-symmetry requirement behind the
// paper's code-size and cycle comparisons (DESIGN.md section 9).
package opt

import "risc1/internal/cc/ir"

// Pass is one rewrite pass. Run returns the number of rewrites
// applied (0 means the function is already a fixpoint of this pass).
type Pass struct {
	Name string
	Run  func(*ir.Func) int
}

// Passes is the pipeline in application order. Order matters only for
// convergence speed, not for the final result: the driver repeats the
// whole list until a full round makes no change.
var Passes = []Pass{
	{"prop", propagate},
	{"fold", fold},
	{"algebra", algebra},
	{"strength", strength},
	{"storesink", storeSink},
	{"branches", branches},
	{"dce", dce},
}

// Stat records the total rewrites one pass performed across the whole
// program; the slice feeds the run/bench report's compiler section.
type Stat struct {
	Name     string
	Rewrites int
}

// maxRounds bounds the fixpoint iteration. Each round either rewrites
// something (and the program shrinks or gets strictly simpler) or the
// loop stops, so real programs converge in a handful of rounds; the
// cap turns a pass-interaction bug into a diagnosable non-optimal
// program instead of a hang.
const maxRounds = 50

// Optimize runs the pipeline over every function at the given level
// and returns per-pass rewrite totals. Level 0 returns the program
// untouched with nil stats; any higher level runs the full pipeline
// to fixpoint.
func Optimize(p *ir.Program, level int) []Stat {
	if level <= 0 {
		return nil
	}
	stats := make([]Stat, len(Passes))
	for i, ps := range Passes {
		stats[i].Name = ps.Name
	}
	for round := 0; round < maxRounds; round++ {
		changed := 0
		for i, ps := range Passes {
			for _, f := range p.Funcs {
				n := ps.Run(f)
				stats[i].Rewrites += n
				changed += n
			}
		}
		if changed == 0 {
			break
		}
	}
	return stats
}

// defCounts returns how many times each temporary is defined. Most
// temporaries are defined exactly once (lowering is nearly SSA); the
// exception is boolean materialization, which writes its result from
// two blocks. Passes only reason about single-definition temporaries.
func defCounts(f *ir.Func) []int {
	defs := make([]int, f.NTemps)
	for _, b := range f.Blocks {
		for k := range b.Instrs {
			if d := b.Instrs[k].Dst; d.Kind == ir.ValTemp {
				defs[d.Temp]++
			}
		}
	}
	return defs
}

// useCounts returns how many operand positions read each temporary,
// across instructions and terminators.
func useCounts(f *ir.Func) []int {
	uses := make([]int, f.NTemps)
	var buf ir.OperandBuf
	for _, b := range f.Blocks {
		for k := range b.Instrs {
			for _, op := range b.Instrs[k].Operands(buf[:0]) {
				if op.Kind == ir.ValTemp {
					uses[op.Temp]++
				}
			}
		}
		for _, op := range b.Term.Operands(buf[:0]) {
			if op.Kind == ir.ValTemp {
				uses[op.Temp]++
			}
		}
	}
	return uses
}

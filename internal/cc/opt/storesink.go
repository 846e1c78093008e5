package opt

import "risc1/internal/cc/ir"

// storeSink fuses `t = <op> ...; v = t` into `v = <op> ...` when t is
// used only by that adjacent copy. This is what lets the backends
// write results straight into variable homes — a register move saved
// on RISC I, and on the CISC machine the difference between a
// register round trip and one memory-destination instruction.
//
// Char variables are excluded: a copy into a char cell truncates to a
// byte, and keeping that truncation confined to OpCopy is what keeps
// both backends' char semantics aligned.
func storeSink(f *ir.Func) int {
	n := 0
	defs := defCounts(f)
	uses := useCounts(f)
	for _, b := range f.Blocks {
		// Compact in place: w counts the instructions kept, so a block
		// with many fusions costs one pass, not one shift per fusion.
		w := 0
		for k := 0; k < len(b.Instrs); k++ {
			if w != k {
				b.Instrs[w] = b.Instrs[k]
			}
			in := &b.Instrs[w]
			w++
			if k+1 == len(b.Instrs) {
				break
			}
			next := &b.Instrs[k+1]
			if next.Op != ir.OpCopy || next.Dst.Kind != ir.ValVar || next.Dst.Var.Char {
				continue
			}
			if in.Op == ir.OpStore || !in.Dst.Valid() {
				continue
			}
			t := in.Dst
			if t.Kind != ir.ValTemp || !next.A.Equal(t) {
				continue
			}
			if defs[t.Temp] != 1 || uses[t.Temp] != 1 {
				continue
			}
			in.Dst = next.Dst
			k++ // the copy is fused away
			uses[t.Temp] = 0
			n++
		}
		b.Instrs = b.Instrs[:w]
	}
	return n
}

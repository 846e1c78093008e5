package opt

import "risc1/internal/cc/ir"

// strength rewrites multiplication, division and modulo by selected
// constants into cheaper operations. On RISC I these ops are calls
// into the software arithmetic runtime, so removing one saves a call;
// on the CISC machine it replaces a slow iterative instruction. The
// pass lives here — not in a backend — precisely so both machines get
// the same treatment (this code started life inside gen_risc.go and
// silently favored RISC I).
//
// Division rewrites are only applied for positive power-of-two
// divisors, using the sign-bias sequence that rounds toward zero like
// a real division:
//
//	bias = (a >> 31) & (c-1)   // c-1 for negative a, else 0
//	a/c  = (a + bias) >> log2(c)
//	a%c  = a - ((a + bias) & -c)
//
// Everything uses arithmetic shifts and masks the IR already has, so
// no new ops are needed.
//
// A block is rebuilt only when one of its instructions is reduced: the
// new slice starts as a copy of the instructions before the first
// reduction, and blocks with nothing to reduce keep their slice, so a
// fixpoint round that finds nothing allocates nothing.
func strength(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		var out []ir.Instr // nil until the first reduction in b
		for k := range b.Instrs {
			repl, ok := reduce(f, &b.Instrs[k])
			if !ok {
				if out != nil {
					out = append(out, b.Instrs[k])
				}
				continue
			}
			if out == nil {
				out = make([]ir.Instr, k, len(b.Instrs)+len(repl)-1)
				copy(out, b.Instrs[:k])
			}
			out = append(out, repl...)
			n++
		}
		if out != nil {
			b.Instrs = out
		}
	}
	return n
}

// reduce returns the replacement sequence for one instruction, or
// ok=false to keep it as is.
func reduce(f *ir.Func, in *ir.Instr) ([]ir.Instr, bool) {
	cp := func(v ir.Value) []ir.Instr {
		return []ir.Instr{{Op: ir.OpCopy, Dst: in.Dst, A: v, Line: in.Line}}
	}
	one := func(op ir.Op, a ir.Value) []ir.Instr {
		return []ir.Instr{{Op: op, Dst: in.Dst, A: a, Line: in.Line}}
	}

	switch in.Op {
	case ir.OpMul:
		a, b := in.A, in.B
		if a.Kind == ir.ValConst { // normalize the constant to B
			a, b = b, a
		}
		if b.Kind != ir.ValConst {
			return nil, false
		}
		switch {
		case b.C == 0:
			return cp(ir.Const(0)), true
		case b.C == 1:
			return cp(a), true
		case b.C == -1:
			return one(ir.OpNeg, a), true
		case ir.PowerOfTwo(b.C):
			return []ir.Instr{{Op: ir.OpShl, Dst: in.Dst, A: a,
				B: ir.Const(int32(ir.Log2(int(b.C)))), Line: in.Line}}, true
		}
		return nil, false

	case ir.OpDiv, ir.OpMod:
		if in.B.Kind != ir.ValConst {
			return nil, false
		}
		c := in.B.C
		switch {
		case c == 1:
			if in.Op == ir.OpMod {
				return cp(ir.Const(0)), true
			}
			return cp(in.A), true
		case c == -1:
			if in.Op == ir.OpMod {
				return cp(ir.Const(0)), true
			}
			return one(ir.OpNeg, in.A), true
		case ir.PowerOfTwo(c) && c > 1:
			sh := int32(ir.Log2(int(c)))
			sign, bias, sum := f.NewTemp(), f.NewTemp(), f.NewTemp()
			seq := []ir.Instr{
				{Op: ir.OpShr, Dst: sign, A: in.A, B: ir.Const(31), Line: in.Line},
				{Op: ir.OpAnd, Dst: bias, A: sign, B: ir.Const(c - 1), Line: in.Line},
				{Op: ir.OpAdd, Dst: sum, A: in.A, B: bias, Line: in.Line},
			}
			if in.Op == ir.OpDiv {
				return append(seq,
					ir.Instr{Op: ir.OpShr, Dst: in.Dst, A: sum, B: ir.Const(sh), Line: in.Line}), true
			}
			trunc := f.NewTemp()
			return append(seq,
				ir.Instr{Op: ir.OpAnd, Dst: trunc, A: sum, B: ir.Const(-c), Line: in.Line},
				ir.Instr{Op: ir.OpSub, Dst: in.Dst, A: in.A, B: trunc, Line: in.Line}), true
		}
		return nil, false
	}
	return nil, false
}

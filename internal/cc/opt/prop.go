package opt

import "risc1/internal/cc/ir"

// propagate is the propagation pass: it forwards constants and copies
// of single-definition temporaries to their uses, forwards variable
// reads within a block, and deletes self-copies.
//
// Soundness without SSA rests on the single-definition rule: if t is
// defined exactly once as `t = s` and s is a constant or a temporary
// that is itself defined exactly once, then every use reached by t's
// definition sees exactly the value s, so the use can read s directly.
// Multi-definition temporaries (boolean materialization) are left
// alone.
//
// One deliberate restriction: a constant is never propagated into the
// count operand of a shift unless it lies in 0..31. Out-of-range
// counts keep their run-time form, where each machine applies its own
// native behavior — the same behavior the unoptimized program has.
func propagate(f *ir.Func) int {
	n := 0
	defs := defCounts(f)

	// Map each single-definition temp to its copied source, when that
	// source is itself stable: a constant, or a single-def temp.
	repl := make([]ir.Value, f.NTemps)
	for _, b := range f.Blocks {
		for k := range b.Instrs {
			in := &b.Instrs[k]
			if in.Op != ir.OpCopy || in.Dst.Kind != ir.ValTemp || defs[in.Dst.Temp] != 1 {
				continue
			}
			switch in.A.Kind {
			case ir.ValConst:
				repl[in.Dst.Temp] = in.A
			case ir.ValTemp:
				if defs[in.A.Temp] == 1 {
					repl[in.Dst.Temp] = in.A
				}
			}
		}
	}
	// Resolve chains (t2 = t1, t3 = t2) so one round suffices.
	resolve := func(v ir.Value) ir.Value {
		for v.Kind == ir.ValTemp && repl[v.Temp].Valid() {
			v = repl[v.Temp]
		}
		return v
	}

	shiftCount := func(in *ir.Instr, op *ir.Value) bool {
		return (in.Op == ir.OpShl || in.Op == ir.OpShr) && op == &in.B
	}
	apply := func(in *ir.Instr, op *ir.Value) {
		r := resolve(*op)
		if r.Equal(*op) {
			return
		}
		if r.Kind == ir.ValConst && in != nil && shiftCount(in, op) && (r.C < 0 || r.C > 31) {
			return
		}
		*op = r
		n++
	}

	var buf ir.OperandBuf
	for _, b := range f.Blocks {
		// Forward variable reads within the block: after `t = v`, uses
		// of t can read v directly until v is rewritten, t is redefined,
		// or (for globals and addressed variables) memory is touched.
		// After `v = $c`, reads of v become the constant under the same
		// kill rules; char cells are excluded because their stores
		// truncate.
		varOf := make(map[int]*ir.Var)
		varConst := make(map[*ir.Var]int32)
		killMem := func() {
			for t, v := range varOf {
				if v.Kind == ir.VarGlobal || v.Addressed {
					delete(varOf, t)
				}
			}
			for v := range varConst {
				if v.Kind == ir.VarGlobal || v.Addressed {
					delete(varConst, v)
				}
			}
		}
		forward := func(in *ir.Instr, op *ir.Value) {
			if op.Kind == ir.ValTemp {
				if v, ok := varOf[op.Temp]; ok {
					*op = ir.VarRef(v)
					n++
				}
			}
			if op.Kind == ir.ValVar {
				if c, ok := varConst[op.Var]; ok {
					if in != nil && shiftCount(in, op) && (c < 0 || c > 31) {
						return
					}
					*op = ir.Const(c)
					n++
				}
			}
		}
		for k := range b.Instrs {
			in := &b.Instrs[k]
			for _, op := range in.Operands(buf[:0]) {
				apply(in, op)
				forward(in, op)
			}
			switch {
			case in.Op == ir.OpStore:
				killMem()
			case in.Op == ir.OpCall:
				killMem()
			case in.Dst.Kind == ir.ValVar:
				for t, v := range varOf {
					if v == in.Dst.Var {
						delete(varOf, t)
					}
				}
				delete(varConst, in.Dst.Var)
				if in.Op == ir.OpCopy && in.A.Kind == ir.ValConst && !in.Dst.Var.Char {
					varConst[in.Dst.Var] = in.A.C
				}
			case in.Dst.Kind == ir.ValTemp:
				delete(varOf, in.Dst.Temp)
				if in.Op == ir.OpCopy && in.A.Kind == ir.ValVar {
					varOf[in.Dst.Temp] = in.A.Var
				}
			}
		}
		for _, op := range b.Term.Operands(buf[:0]) {
			apply(nil, op)
			forward(nil, op)
		}

		// Delete self-copies (v = v), which variable forwarding creates.
		out := b.Instrs[:0]
		for k := range b.Instrs {
			in := b.Instrs[k]
			if in.Op == ir.OpCopy && in.Dst.Kind == ir.ValVar && in.Dst.Equal(in.A) {
				n++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return n
}

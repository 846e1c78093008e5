package cc

import (
	"fmt"
	"strings"

	"risc1/internal/cc/ir"
)

// CISC baseline code generation conventions (PCC-for-VAX flavour):
//
//   - r0..r3: temporaries, assigned by the shared linear-scan
//     allocator; r0 carries return values
//   - r4, r5: emission scratch (char-cell staging, shift counts,
//     quotients) — never allocated
//   - r6..r11: register variables, saved/restored by the CALLS entry mask
//   - parameters live on the stack: argument i at 4*(i+1)(ap)
//   - arrays, addressed locals, overflow locals and spilled
//     temporaries live at negative FP offsets
//   - arguments are pushed right-to-left; CALLS/RET do the heavy lifting
//
// The generator consumes the same IR the RISC backend does. Where the
// architecture allows it, values are used as memory operands directly
// (globals as absolute operands, frame cells as displacements,
// immediates in-instruction) — exactly the density advantage the paper
// credits CISC code with. Temporaries that live across a call are
// assigned frame slots up front, because r0..r5 are caller-saved.
const (
	vaxScratchRegs = 6  // r0..r5
	vaxVarBase     = 6  // first register-variable register
	vaxVarLimit    = 12 // r6..r11
)

// vaxTempPool is the register pool the allocator hands out: r0..r3.
var vaxTempPool = []int{0, 1, 2, 3}

// GenVAX compiles a lowered (and possibly optimized) IR program to
// baseline CISC assembly text.
func GenVAX(prog *ir.Program) (string, error) {
	g := &vgen{asmOut: asmOut{prog: prog}}
	g.raw("; MiniC CISC baseline output\n")
	g.label("start")
	g.emit("calls $0, main")
	g.emit("halt")
	for _, fn := range prog.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	g.emitData(";")
	return g.b.String(), nil
}

type vgen struct {
	asmOut
	frame // varReg: r6..r11; frameOff: negative FP offsets
}

func (g *vgen) genFunc(fn *ir.Func) error {
	g.fn = fn
	g.reset()

	// Non-addressed scalar locals into r6..r11; the rest (and arrays)
	// into the frame.
	var entryRegs []string
	off := 0
	for _, l := range fn.Locals {
		if l.Scalar && !l.Addressed && len(entryRegs) < vaxVarLimit-vaxVarBase {
			r := vaxVarBase + len(entryRegs)
			g.varReg[l] = r
			entryRegs = append(entryRegs, fmt.Sprintf("r%d", r))
			continue
		}
		sz := (l.Size + 3) &^ 3
		off += sz
		g.frameOff[l] = -off
	}
	g.frameMem = off

	g.alloc = allocateTemps(fn, vaxTempPool, true)
	g.frameSize = g.frameMem + 4*g.alloc.nSpills

	g.label(fn.Name)
	// Entry mask: save exactly the register variables this body uses.
	g.emit(".entry %s", strings.Join(entryRegs, ", "))
	if g.frameSize > 0 {
		g.emit("subl2 $%d, sp", g.frameSize)
	}
	return g.body(g.instr, g.term)
}

// spillOp returns the frame operand of a spill slot.
func (g *vgen) spillOp(slot int) string {
	return fmt.Sprintf("%d(fp)", -(g.spillOff(slot) + 4))
}

// cellOp returns the raw addressing-mode string of a variable's
// storage cell, whatever its width.
func (g *vgen) cellOp(v *ir.Var) string {
	if r, ok := g.varReg[v]; ok {
		return fmt.Sprintf("r%d", r)
	}
	switch v.Kind {
	case ir.VarGlobal:
		return v.Name
	case ir.VarParam:
		return fmt.Sprintf("%d(ap)", 4*(v.ParamSlot+1))
	default:
		return fmt.Sprintf("%d(fp)", g.frameOff[v])
	}
}

// operand returns a full-word addressing-mode string for a value, or
// ok=false for char cells, which need zero-extension first.
func (g *vgen) operand(v ir.Value) (string, bool) {
	switch v.Kind {
	case ir.ValConst:
		return fmt.Sprintf("$%d", v.C), true
	case ir.ValTemp:
		if l := g.alloc.loc[v.Temp]; l.reg >= 0 {
			return fmt.Sprintf("r%d", l.reg), true
		} else {
			return g.spillOp(l.slot), true
		}
	case ir.ValVar:
		if g.memChar(v.Var) {
			return "", false
		}
		return g.cellOp(v.Var), true
	}
	return "", false
}

// readOp returns a word operand for the value, staging char cells
// through the given scratch register.
func (g *vgen) readOp(v ir.Value, scratch string) string {
	if op, ok := g.operand(v); ok {
		return op
	}
	g.emit("movzbl %s, %s", g.cellOp(v.Var), scratch)
	return scratch
}

// dstOp returns the word destination operand of an instruction. Only
// OpCopy can target a char cell (the store-sink pass guarantees it),
// so every other op writes through this.
func (g *vgen) dstOp(d ir.Value) string {
	op, _ := g.operand(d)
	return op
}

func (g *vgen) instr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpCopy:
		g.assign(in.Dst, in.A)
		return nil

	case ir.OpNeg, ir.OpCom:
		mn := "mnegl"
		if in.Op == ir.OpCom {
			mn = "mcoml"
		}
		g.emit("%s %s, %s", mn, g.readOp(in.A, "r4"), g.dstOp(in.Dst))
		return nil

	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		a := g.readOp(in.A, "r4")
		b := g.readOp(in.B, "r5")
		d := g.dstOp(in.Dst)
		mn2, mn3 := vaxALU2[in.Op], vaxALU3[in.Op]
		switch d {
		case a:
			g.emit("%s %s, %s", mn2, b, d)
		case b:
			g.emit("%s %s, %s", mn2, a, d)
		default:
			g.emit("%s %s, %s, %s", mn3, a, b, d)
		}
		return nil

	case ir.OpSub:
		a := g.readOp(in.A, "r4")
		b := g.readOp(in.B, "r5")
		d := g.dstOp(in.Dst)
		if d == a {
			g.emit("subl2 %s, %s", b, d)
		} else {
			g.emit("subl3 %s, %s, %s", b, a, d)
		}
		return nil

	case ir.OpDiv:
		a := g.readOp(in.A, "r4")
		b := g.readOp(in.B, "r5")
		d := g.dstOp(in.Dst)
		if d == a {
			g.emit("divl2 %s, %s", b, d)
		} else {
			g.emit("divl3 %s, %s, %s", b, a, d)
		}
		return nil

	case ir.OpMod:
		g.mod(in)
		return nil

	case ir.OpShl, ir.OpShr:
		g.shift(in)
		return nil

	case ir.OpAddr:
		g.emit("moval %s, %s", g.cellOp(in.Var), g.dstOp(in.Dst))
		return nil

	case ir.OpAddrStr:
		g.emit("moval %s, %s", in.Label, g.dstOp(in.Dst))
		return nil

	case ir.OpLoad:
		addr := g.addrReg(in.A, "r4")
		mn := "movl"
		if in.Size == 1 {
			mn = "movzbl"
		}
		g.emit("%s (%s), %s", mn, addr, g.dstOp(in.Dst))
		return nil

	case ir.OpStore:
		addr := g.addrReg(in.A, "r4")
		b := g.readOp(in.B, "r5")
		if in.Size == 1 {
			if strings.HasPrefix(b, "$") {
				g.emit("movl %s, r5", b)
				b = "r5"
			}
			g.emit("movb %s, (%s)", b, addr)
		} else {
			g.emit("movl %s, (%s)", b, addr)
		}
		return nil

	case ir.OpCall:
		for i := len(in.Args) - 1; i >= 0; i-- {
			g.emit("pushl %s", g.readOp(in.Args[i], "r4"))
		}
		g.emit("calls $%d, %s", len(in.Args), in.Label)
		if in.Dst.Valid() {
			if d := g.dstOp(in.Dst); d != "r0" {
				g.emit("movl r0, %s", d)
			}
		}
		return nil
	}
	return errf(in.Line, "internal: unhandled IR op %d", in.Op)
}

var vaxALU2 = map[ir.Op]string{
	ir.OpAdd: "addl2", ir.OpMul: "mull2", ir.OpAnd: "andl2",
	ir.OpOr: "bisl2", ir.OpXor: "xorl2",
}

var vaxALU3 = map[ir.Op]string{
	ir.OpAdd: "addl3", ir.OpMul: "mull3", ir.OpAnd: "andl3",
	ir.OpOr: "bisl3", ir.OpXor: "xorl3",
}

// assign implements Dst = A; this is the only place a char cell is
// written, so truncation lives here (copyTo on the load/store targets).
func (g *vgen) assign(d, a ir.Value) {
	if dop, ok := g.operand(d); ok {
		// Word destination.
		if a.Kind == ir.ValVar && g.memChar(a.Var) {
			g.emit("movzbl %s, %s", g.cellOp(a.Var), dop)
			return
		}
		aop, _ := g.operand(a)
		if aop == dop {
			return
		}
		if a.Kind == ir.ValConst && a.C == 0 {
			g.emit("clrl %s", dop)
			return
		}
		g.emit("movl %s, %s", aop, dop)
		return
	}
	// Char-cell destination: a byte move truncates; byte-to-byte moves
	// go cell to cell. Immediates are staged to keep them in range.
	cell := g.cellOp(d.Var)
	switch {
	case a.Kind == ir.ValVar && g.memChar(a.Var):
		g.emit("movb %s, %s", g.cellOp(a.Var), cell)
	case a.Kind == ir.ValConst:
		g.emit("movl $%d, r5", a.C)
		g.emit("movb r5, %s", cell)
	default:
		aop, _ := g.operand(a)
		g.emit("movb %s, %s", aop, cell)
	}
}

// mod emits A % B as div/mul/sub. The quotient needs a register that
// is neither source: the destination itself when it aliases nothing,
// else whichever of r4/r5 is not staging an operand.
func (g *vgen) mod(in *ir.Instr) {
	a := g.readOp(in.A, "r4")
	b := g.readOp(in.B, "r5")
	d := g.dstOp(in.Dst)
	q := d
	if d == a || d == b {
		q = "r5"
		if b == "r5" {
			q = "r4"
		}
	}
	g.emit("divl3 %s, %s, %s", b, a, q)
	g.emit("mull2 %s, %s", b, q)
	g.emit("subl3 %s, %s, %s", q, a, d)
}

// shift emits ashl, negating the count for right shifts. Only counts
// in 0..31 reach here as constants; variable counts keep the CISC
// machine's native saturating behavior.
func (g *vgen) shift(in *ir.Instr) {
	a := g.readOp(in.A, "r4")
	d := g.dstOp(in.Dst)
	if in.B.Kind == ir.ValConst {
		c := in.B.C
		if in.Op == ir.OpShr {
			c = -c
		}
		g.emit("ashl $%d, %s, %s", c, a, d)
		return
	}
	b := g.readOp(in.B, "r5")
	if in.Op == ir.OpShr {
		g.emit("mnegl %s, r5", b)
		b = "r5"
	}
	g.emit("ashl %s, %s, %s", b, a, d)
}

// addrReg returns a register holding an address, staging non-register
// values through scratch.
func (g *vgen) addrReg(v ir.Value, scratch string) string {
	op := g.readOp(v, scratch)
	if strings.HasPrefix(op, "r") && !strings.Contains(op, "(") {
		return op
	}
	g.emit("movl %s, %s", op, scratch)
	return scratch
}

// vaxCondOf maps IR relations to branch mnemonics, with negations.
var vaxCondOf = map[ir.Rel]string{
	ir.RelEq: "beql", ir.RelNe: "bneq", ir.RelLt: "blss",
	ir.RelLe: "bleq", ir.RelGt: "bgtr", ir.RelGe: "bgeq",
}

func (g *vgen) term(t *ir.Term, next *ir.Block) {
	switch t.Kind {
	case ir.TermJump:
		if t.Then != next {
			g.emit("brw %s", g.blockLabel(t.Then))
		}

	case ir.TermBranch:
		rel := t.Rel
		switch {
		case t.B.Kind == ir.ValConst && t.B.C == 0:
			g.emit("tstl %s", g.readOp(t.A, "r4"))
		case t.A.Kind == ir.ValConst && t.A.C == 0:
			// 0 <rel> b  ==  b <swapped rel> 0
			g.emit("tstl %s", g.readOp(t.B, "r5"))
			rel = swapRel(rel)
		default:
			g.emit("cmpl %s, %s", g.readOp(t.A, "r4"), g.readOp(t.B, "r5"))
		}
		switch {
		case t.Else == next:
			g.emit("%s %s", vaxCondOf[rel], g.blockLabel(t.Then))
		case t.Then == next:
			g.emit("%s %s", vaxCondOf[rel.Negate()], g.blockLabel(t.Else))
		default:
			g.emit("%s %s", vaxCondOf[rel], g.blockLabel(t.Then))
			g.emit("brw %s", g.blockLabel(t.Else))
		}

	case ir.TermReturn:
		if t.Ret.Valid() {
			op := g.readOp(t.Ret, "r4")
			if op == "$0" {
				g.emit("clrl r0")
			} else if op != "r0" {
				g.emit("movl %s, r0", op)
			}
		} else {
			g.emit("clrl r0")
		}
		g.emit("ret")
	}
}

// swapRel mirrors a relation across swapped operands.
func swapRel(r ir.Rel) ir.Rel {
	switch r {
	case ir.RelLt:
		return ir.RelGt
	case ir.RelLe:
		return ir.RelGe
	case ir.RelGt:
		return ir.RelLt
	case ir.RelGe:
		return ir.RelLe
	}
	return r
}

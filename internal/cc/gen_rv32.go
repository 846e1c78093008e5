package cc

import "risc1/internal/cc/ir"

// Modern-RISC (RV32I+M subset) code generation conventions:
//
//   - x0 (zero): hardwired zero
//   - ra: return address, saved in the frame by non-leaf functions
//   - sp: stack pointer, initialized by the bootstrap
//   - t0, t1: code-generator scratch (spill partner, address formation)
//   - t2..t6: temporaries, assigned by the shared linear-scan allocator;
//     caller-saved, so temporaries that live across a call get frame
//     slots up front (spillAcrossCalls) — the software cost the paper's
//     register windows avoid
//   - s1..s7: register variables and parameter homes, callee-saved via
//     prologue/epilogue stores — the conventional-machine answer to the
//     windows' free save/restore
//   - a0..a5: arguments; a0 carries return values
//
// The generator consumes the same IR as the other two backends. Unlike
// RISC I there are no delay slots to fill (taken branches pay a refetch
// bubble in the cost model instead) and multiply/divide are native
// M-extension instructions rather than software routines.
const (
	rv32StackTop  = 0x80000 // initial sp, matching the RISC I bootstrap
	rv32Scratch1  = 5       // t0
	rv32Scratch2  = 6       // t1
	rv32ArgBase   = 10      // a0
	rv32MaxParams = 6       // a0..a5
)

// rv32VarRegs are the callee-saved register-variable homes (s1..s7; s0
// is left out of the pool, keeping "fp" free for readers).
var rv32VarRegs = []int{9, 18, 19, 20, 21, 22, 23}

// rv32TempPool is the caller-saved allocator pool (t2..t6).
var rv32TempPool = []int{7, 28, 29, 30, 31}

// rv32Target spells the RV32 side of the shared load/store core.
var rv32Target = lsTarget{
	regs:     32,
	base:     2,
	scratch1: rv32Scratch1,
	scratch2: rv32Scratch2,
	argBase:  rv32ArgBase,
	immOK:    imm12OK,
	load:     [2]string{"lw", "lbu"},
	store:    [2]string{"sw", "sb"},
	mov:      "mv",
	la:       "la",
	addi:     "addi",
	mem:      "%[1]s %[2]s, %[4]d(%[3]s)",
	addBase:  "add %[1]s, %[1]s, %[2]s",
	neg:      "neg %s, %s",
	com:      "not %s, %s",
}

// GenRV32 compiles a lowered (and possibly optimized) IR program to
// RV32 assembly text.
func GenRV32(prog *ir.Program) (string, error) {
	g := &mgen{lsgen: lsgen{asmOut: asmOut{prog: prog}, t: &rv32Target}}
	g.raw("# MiniC RV32 output\n")
	g.label("start")
	g.emit("li sp, %d", rv32StackTop)
	g.emit("call main")
	g.emit("ecall")
	for _, fn := range prog.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	g.emitData("#")
	return g.b.String(), nil
}

type mgen struct {
	lsgen
	savedS []int // callee-saved registers this body uses
	leaf   bool
}

func (g *mgen) genFunc(fn *ir.Func) error {
	if len(fn.Params) > rv32MaxParams {
		return errf(fn.Line, "%q: the RV32 convention passes at most %d register parameters", fn.Name, rv32MaxParams)
	}
	g.fn = fn
	g.reset()
	g.savedS = nil

	g.leaf = true
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				g.leaf = false
			}
		}
	}

	// Storage assignment: parameters first (copied out of a0..a5 in the
	// prologue), then non-addressed scalar locals, into s1..s7; the rest
	// join the arrays in the frame.
	nreg := 0
	off := 0
	takeReg := func(v *ir.Var) bool {
		if nreg >= len(rv32VarRegs) {
			return false
		}
		r := rv32VarRegs[nreg]
		g.varReg[v] = r
		g.savedS = append(g.savedS, r)
		nreg++
		return true
	}
	for _, p := range fn.Params {
		if !p.Addressed && takeReg(p) {
			continue
		}
		g.frameOff[p] = off
		off += 4
	}
	for _, l := range fn.Locals {
		if l.Scalar && !l.Addressed && takeReg(l) {
			continue
		}
		g.frameOff[l] = off
		off += (l.Size + 3) &^ 3
	}
	g.frameMem = off

	g.alloc = allocateTemps(fn, rv32TempPool, true)
	g.frameSize = g.frameMem + 4*g.alloc.nSpills + 4*len(g.savedS)
	if !g.leaf {
		g.frameSize += 4
	}

	g.label(fn.Name)
	g.adjustSP(-g.frameSize)
	if !g.leaf {
		g.frameAccess("sw", 1, g.frameSize-4)
	}
	for i, s := range g.savedS {
		g.frameAccess("sw", s, g.sRegOff(i))
	}
	for _, p := range fn.Params {
		if r, ok := g.varReg[p]; ok {
			g.move(r, rv32ArgBase+p.ParamSlot)
		} else {
			g.frameAccess("sw", rv32ArgBase+p.ParamSlot, g.frameOff[p])
		}
	}
	return g.body(g.instr, g.term)
}

// adjustSP moves the stack pointer by delta bytes (t0 staging when the
// amount is out of immediate range).
func (g *mgen) adjustSP(delta int) {
	if delta == 0 {
		return
	}
	if imm12OK(int32(delta)) {
		g.emit("addi sp, sp, %d", delta)
		return
	}
	if delta < 0 {
		g.emit("li t0, %d", -delta)
		g.emit("sub sp, sp, t0")
	} else {
		g.emit("li t0, %d", delta)
		g.emit("add sp, sp, t0")
	}
}

// sRegOff returns the frame offset of the i-th saved s-register.
func (g *mgen) sRegOff(i int) int { return g.frameMem + 4*g.alloc.nSpills + 4*i }

// imm12OK reports whether a constant fits the 12-bit immediate field.
func imm12OK(c int32) bool { return c >= -2048 && c <= 2047 }

// rv32ALU maps IR binary ops with native register-form mnemonics;
// rv32ALUImm those with an immediate form.
var rv32ALU = map[ir.Op]string{
	ir.OpAdd: "add", ir.OpSub: "sub", ir.OpAnd: "and", ir.OpOr: "or",
	ir.OpXor: "xor", ir.OpShl: "sll", ir.OpShr: "sra",
	ir.OpMul: "mul", ir.OpDiv: "div", ir.OpMod: "rem",
}

var rv32ALUImm = map[ir.Op]string{
	ir.OpAdd: "addi", ir.OpAnd: "andi", ir.OpOr: "ori",
	ir.OpXor: "xori", ir.OpShl: "slli", ir.OpShr: "srai",
}

func (g *mgen) instr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpMul, ir.OpDiv, ir.OpMod:
		g.binary(in)
		return nil
	case ir.OpCall:
		if len(in.Args) > rv32MaxParams {
			return errf(in.Line, "call %q: at most %d register arguments", in.Label, rv32MaxParams)
		}
	}
	return g.lsgen.instr(in)
}

// binary emits one native ALU operation, using the immediate form when
// a constant operand fits. Multiplication, division and modulo are
// single M-extension instructions here — the hardware RISC I trades for
// its software __mul/__div routines.
func (g *mgen) binary(in *ir.Instr) {
	rd, store := g.dstReg(in.Dst)
	a, b := in.A, in.B

	// Constant on the left: commutative ops swap operands; the rest
	// stage the constant into a register below.
	if a.Kind == ir.ValConst && a.C != 0 {
		switch in.Op {
		case ir.OpAdd, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpMul:
			a, b = b, a
		}
	}

	ar := g.readVal(a, rv32Scratch1)
	if mn, ok := rv32ALUImm[in.Op]; ok && b.Kind == ir.ValConst && b.C != 0 && imm12OK(b.C) {
		g.emit("%s %s, %s, %d", mn, g.r(rd), g.r(ar), b.C)
	} else if in.Op == ir.OpSub && b.Kind == ir.ValConst && b.C != 0 && imm12OK(-b.C) {
		g.emit("addi %s, %s, %d", g.r(rd), g.r(ar), -b.C)
	} else {
		br := g.readVal(b, rv32Scratch2)
		g.emit("%s %s, %s, %s", rv32ALU[in.Op], g.r(rd), g.r(ar), g.r(br))
	}
	if store {
		g.writeBack(in.Dst, rd)
	}
}

// rv32CondOf maps an IR relation to a branch mnemonic (ble/bgt are
// assembler pseudos that swap operands onto bge/blt).
var rv32CondOf = map[ir.Rel]string{
	ir.RelEq: "beq", ir.RelNe: "bne", ir.RelLt: "blt",
	ir.RelLe: "ble", ir.RelGt: "bgt", ir.RelGe: "bge",
}

// term emits a block terminator; next is the layout successor, whose
// label a fallthrough reaches for free. No delay slots to schedule:
// the branch-cost model charges the refetch bubble instead.
func (g *mgen) term(t *ir.Term, next *ir.Block) {
	switch t.Kind {
	case ir.TermJump:
		if t.Then != next {
			g.emit("j %s", g.blockLabel(t.Then))
		}

	case ir.TermBranch:
		a := g.readVal(t.A, rv32Scratch1)
		b := g.readVal(t.B, rv32Scratch2)
		branch := func(rel ir.Rel, target *ir.Block) {
			g.emit("%s %s, %s, %s", rv32CondOf[rel], g.r(a), g.r(b), g.blockLabel(target))
		}
		switch {
		case t.Else == next:
			branch(t.Rel, t.Then)
		case t.Then == next:
			branch(t.Rel.Negate(), t.Else)
		default:
			branch(t.Rel, t.Then)
			g.emit("j %s", g.blockLabel(t.Else))
		}

	case ir.TermReturn:
		if t.Ret.Valid() {
			g.loadInto(t.Ret, rv32ArgBase)
		} else {
			g.emit("li a0, 0")
		}
		for i, s := range g.savedS {
			g.frameAccess("lw", s, g.sRegOff(i))
		}
		if !g.leaf {
			g.frameAccess("lw", 1, g.frameSize-4)
		}
		g.adjustSP(g.frameSize)
		g.emit("ret")
	}
}

package cc

import "risc1/internal/cc/ir"

// RISC I code generation conventions (register windows, cf. DESIGN.md):
//
//   - r0: hardwired zero
//   - r1: data stack pointer (global), initialized by the bootstrap
//   - r8: code-generator scratch (spill partner, address formation)
//   - r9: second straight-line scratch
//   - r10..r15: outgoing arguments; the result returns in r10
//   - r16..r24: register variables and temporaries
//   - r25: return address (written by CALL, used by RET)
//   - r26..r31: incoming parameters; the callee writes its result to r26,
//     which is physically the caller's r10 — returning a value costs
//     nothing, exactly the property the paper's window design buys.
//
// The generator consumes the shared IR (internal/cc/ir): temporaries
// are assigned to r16.. by the linear-scan allocator in regalloc.go
// (they survive calls for free thanks to the windows), scalar locals
// get dedicated registers, and arrays, addressed locals and spilled
// temporaries live in a frame on the data stack. Multiplication,
// division and modulo call assembly runtime routines, because RISC I
// deliberately has no multiply or divide hardware.
const (
	riscStackTop   = 0x80000 // initial r1
	riscScratchPtr = 8       // r8: scratch (spills, address formation)
	riscScratch2   = 9       // r9: second straight-line scratch
	riscArgBase    = 10      // first outgoing argument register
	riscVarBase    = 16      // first allocatable local register
	riscVarLimit   = 25      // r25 reserved for the return address
	riscParamBase  = 26      // first incoming parameter register
	riscMaxParams  = 6
	riscRetValReg  = 26 // callee-side result register (caller sees r10)
)

// minScratch is the minimum number of r16..r24 registers kept for
// temporaries; register variables take at most the rest.
const minScratch = 4

// riscTarget spells the RISC I side of the shared load/store core.
var riscTarget = lsTarget{
	regs:     0,
	base:     1,
	scratch1: riscScratchPtr,
	scratch2: riscScratch2,
	argBase:  riscArgBase,
	immOK:    immOK,
	load:     [2]string{"ldl", "ldbu"},
	store:    [2]string{"stl", "stb"},
	mov:      "mov",
	la:       "li",
	addi:     "add",
	mem:      "%s %s, %s, %d",
	addBase:  "add %[1]s, %[2]s, %[1]s",
	neg:      "subr %s, %s, 0",
	com:      "xor %s, %s, -1",
	callNop:  true,
}

// GenRISC compiles a lowered (and possibly optimized) IR program to
// RISC I assembly text.
func GenRISC(prog *ir.Program) (string, error) {
	g := &rgen{lsgen: lsgen{asmOut: asmOut{prog: prog}, t: &riscTarget}}
	g.emitBootstrap()
	for _, fn := range prog.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	if g.usesMul {
		g.raw(riscMulRuntime)
	}
	if g.usesDiv {
		g.raw(riscDivRuntime)
	}
	g.emitData(";")
	return g.b.String(), nil
}

type rgen struct {
	lsgen
	usesMul bool
	usesDiv bool
}

func (g *rgen) emitBootstrap() {
	g.raw("; MiniC RISC I output\n")
	g.label("start")
	g.emit("li r1, %d\t\t; data stack pointer", riscStackTop)
	g.emit("call main")
	g.emit("nop")
	g.emit("mov r2, r10\t\t; exit value of main")
	g.emit("ret")
	g.emit("nop")
}

func (g *rgen) genFunc(fn *ir.Func) error {
	if len(fn.Params) > riscMaxParams {
		return errf(fn.Line, "%q: RISC I passes at most %d register parameters", fn.Name, riscMaxParams)
	}
	g.fn = fn
	g.reset()

	// Parameters stay in their window registers, so their address
	// cannot be taken.
	for _, p := range fn.Params {
		g.varReg[p] = riscParamBase + p.ParamSlot
	}

	// Storage assignment: non-addressed scalar locals get registers
	// until only minScratch temporaries' worth remain; the rest join
	// the arrays in the stack frame.
	avail := riscVarLimit - riscVarBase // 9 allocatable registers
	nreg := 0
	off := 0
	for _, l := range fn.Locals {
		if l.Scalar && !l.Addressed && nreg < avail-minScratch {
			g.varReg[l] = riscVarBase + nreg
			nreg++
			continue
		}
		g.frameOff[l] = off
		off += (l.Size + 3) &^ 3
	}
	g.frameMem = off

	// Temporaries share r16..r24 above the register variables.
	var pool []int
	for r := riscVarBase + nreg; r < riscVarLimit; r++ {
		pool = append(pool, r)
	}
	g.alloc = allocateTemps(fn, pool, false)
	g.frameSize = g.frameMem + 4*g.alloc.nSpills

	g.label(fn.Name)
	if g.frameSize > 0 {
		g.emit("sub r1, r1, %d\t; frame for arrays/spilled locals", g.frameSize)
	}
	return g.body(g.instr, g.term)
}

// immOK reports whether a constant fits the 13-bit immediate field.
func immOK(c int32) bool { return c >= -4096 && c <= 4095 }

// riscALU maps IR binary ops with native RISC I instructions.
var riscALU = map[ir.Op]string{
	ir.OpAdd: "add", ir.OpSub: "sub", ir.OpAnd: "and",
	ir.OpOr: "or", ir.OpXor: "xor", ir.OpShl: "sll", ir.OpShr: "sra",
}

func (g *rgen) instr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		g.binary(in)
		return nil
	case ir.OpMul, ir.OpDiv, ir.OpMod:
		g.mulDivMod(in)
		return nil
	}
	return g.lsgen.instr(in)
}

// binary emits one of the native two-operand ALU operations, using
// the immediate form when a constant operand fits.
func (g *rgen) binary(in *ir.Instr) {
	mn := riscALU[in.Op]
	rd, store := g.dstReg(in.Dst)
	a, b := in.A, in.B

	// Constant on the left: subr swaps subtraction; the commutative
	// ops just swap operands. Shifts fall through to register form.
	if a.Kind == ir.ValConst && a.C != 0 {
		switch in.Op {
		case ir.OpSub:
			if immOK(a.C) {
				br := g.readVal(b, riscScratchPtr)
				g.emit("subr r%d, r%d, %d", rd, br, a.C)
				if store {
					g.writeBack(in.Dst, rd)
				}
				return
			}
		case ir.OpAdd, ir.OpAnd, ir.OpOr, ir.OpXor:
			a, b = b, a
		}
	}

	ar := g.readVal(a, riscScratchPtr)
	if b.Kind == ir.ValConst && b.C != 0 && immOK(b.C) {
		g.emit("%s r%d, r%d, %d", mn, rd, ar, b.C)
	} else {
		br := g.readVal(b, riscScratch2)
		g.emit("%s r%d, r%d, r%d", mn, rd, ar, br)
	}
	if store {
		g.writeBack(in.Dst, rd)
	}
}

// mulDivMod lowers multiplication, division and modulo: multiplication
// by a register-destined constant becomes a shift-and-add sequence,
// everything else calls the software arithmetic runtime.
func (g *rgen) mulDivMod(in *ir.Instr) {
	a, b := in.A, in.B
	if in.Op == ir.OpMul && a.Kind == ir.ValConst {
		a, b = b, a
	}
	rd, store := g.dstReg(in.Dst)
	if in.Op == ir.OpMul && b.Kind == ir.ValConst && !store {
		// In-place shift-and-add needs a register destination clear of
		// the r8/r9 workspace.
		g.loadInto(a, rd)
		g.mulConst(rd, b.C)
		return
	}

	var fn string
	switch in.Op {
	case ir.OpMul:
		fn = "__mul"
		g.usesMul = true
	case ir.OpDiv:
		fn = "__div"
		g.usesDiv = true
	default:
		fn = "__mod"
		g.usesDiv = true
	}
	g.call(fn, []ir.Value{a, b}, in.Dst)
}

// mulConst multiplies the value in dst by a constant, in place, using
// shifts and adds (r8/r9 as workspace; dst must be neither).
func (g *rgen) mulConst(dst int, c int32) {
	switch c {
	case 0:
		g.emit("mov r%d, 0", dst)
		return
	case 1:
		return
	case -1:
		g.emit("subr r%d, r%d, 0", dst, dst)
		return
	}
	neg := c < 0
	u := uint32(c)
	if neg {
		u = uint32(-c)
	}
	if u&(u-1) == 0 {
		g.emit("sll r%d, r%d, %d", dst, dst, ir.Log2(int(u)))
	} else {
		g.emit("mov r%d, r%d", riscScratchPtr, dst)
		first := true
		for bit := 0; bit < 32; bit++ {
			if u&(1<<uint(bit)) == 0 {
				continue
			}
			if first {
				if bit > 0 {
					g.emit("sll r%d, r%d, %d", dst, dst, bit)
				}
				first = false
				continue
			}
			g.emit("sll r%d, r%d, %d", riscScratch2, riscScratchPtr, bit)
			g.emit("add r%d, r%d, r%d", dst, dst, riscScratch2)
		}
	}
	if neg {
		g.emit("subr r%d, r%d, 0", dst, dst)
	}
}

// riscCondOf maps an IR relation to a branch condition suffix.
var riscCondOf = map[ir.Rel]string{
	ir.RelEq: "eq", ir.RelNe: "ne", ir.RelLt: "lt",
	ir.RelLe: "le", ir.RelGt: "gt", ir.RelGe: "ge",
}

// term emits a block terminator; next is the layout successor, whose
// label a fallthrough reaches for free.
func (g *rgen) term(t *ir.Term, next *ir.Block) {
	switch t.Kind {
	case ir.TermJump:
		if t.Then != next {
			g.emit("ba %s", g.blockLabel(t.Then))
			g.emit("nop")
		}

	case ir.TermBranch:
		a := g.readVal(t.A, riscScratchPtr)
		if t.B.Kind == ir.ValConst && immOK(t.B.C) {
			g.emit("sub. r0, r%d, %d", a, t.B.C)
		} else {
			b := g.readVal(t.B, riscScratch2)
			g.emit("sub. r0, r%d, r%d", a, b)
		}
		switch {
		case t.Else == next:
			g.emit("b%s %s", riscCondOf[t.Rel], g.blockLabel(t.Then))
			g.emit("nop")
		case t.Then == next:
			g.emit("b%s %s", riscCondOf[t.Rel.Negate()], g.blockLabel(t.Else))
			g.emit("nop")
		default:
			g.emit("b%s %s", riscCondOf[t.Rel], g.blockLabel(t.Then))
			g.emit("nop")
			g.emit("ba %s", g.blockLabel(t.Else))
			g.emit("nop")
		}

	case ir.TermReturn:
		if t.Ret.Valid() {
			g.loadInto(t.Ret, riscRetValReg)
		} else {
			g.emit("mov r%d, 0", riscRetValReg)
		}
		if g.frameSize > 0 {
			g.emit("add r1, r1, %d", g.frameSize)
		}
		g.emit("ret")
		g.emit("nop")
	}
}

// Runtime routines. Arguments arrive in r26/r27 (the caller's r10/r11);
// the result returns in r26. Locals r16.. are private to the window.
const riscMulRuntime = `
; signed/unsigned 32-bit multiply (low word): shift-and-add
__mul:
	mov r16, 0		; accumulator
	mov r17, r26		; multiplicand
	mov r18, r27		; multiplier
.Lmul_loop:
	sub. r0, r18, 0
	beq .Lmul_done
	nop
	and. r0, r18, 1
	beq .Lmul_skip
	nop
	add r16, r16, r17
.Lmul_skip:
	sll r17, r17, 1
	srl r18, r18, 1
	ba .Lmul_loop
	nop
.Lmul_done:
	mov r26, r16
	ret
	nop
`

const riscDivRuntime = `
; signed 32-bit divide and modulo via restoring unsigned division.
; __udivmod: r26=dividend r27=divisor -> r26=quotient r27=remainder
__udivmod:
	mov r16, 0		; quotient
	mov r17, 0		; remainder
	mov r18, 32		; bit counter
.Ludm_loop:
	sll r17, r17, 1
	srl r19, r26, 31
	or r17, r17, r19
	sll r26, r26, 1
	sll r16, r16, 1
	sub. r0, r17, r27	; unsigned compare remainder vs divisor
	blo .Ludm_skip		; remainder < divisor: leave bit clear
	nop
	sub r17, r17, r27
	add r16, r16, 1
.Ludm_skip:
	sub. r18, r18, 1
	bne .Ludm_loop
	nop
	mov r26, r16
	mov r27, r17
	ret
	nop

; __div: r26=a r27=b -> r26 = a/b (truncated)
__div:
	xor r20, r26, r27	; sign of the quotient
	sub. r0, r26, 0
	bge .Ldiv_ap
	nop
	subr r26, r26, 0
.Ldiv_ap:
	sub. r0, r27, 0
	bge .Ldiv_bp
	nop
	subr r27, r27, 0
.Ldiv_bp:
	mov r10, r26
	mov r11, r27
	call __udivmod
	nop
	mov r26, r10
	sub. r0, r20, 0
	bge .Ldiv_pos
	nop
	subr r26, r26, 0
.Ldiv_pos:
	ret
	nop

; __mod: r26=a r27=b -> r26 = a%b (sign follows the dividend, as in C)
__mod:
	mov r21, r26		; remember the dividend's sign
	sub. r0, r26, 0
	bge .Lmod_ap
	nop
	subr r26, r26, 0
.Lmod_ap:
	sub. r0, r27, 0
	bge .Lmod_bp
	nop
	subr r27, r27, 0
.Lmod_bp:
	mov r10, r26
	mov r11, r27
	call __udivmod
	nop
	mov r26, r11		; remainder
	sub. r0, r21, 0
	bge .Lmod_pos
	nop
	subr r26, r26, 0
.Lmod_pos:
	ret
	nop
`

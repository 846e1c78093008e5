package cc

import (
	"fmt"
	"strings"

	"risc1/internal/cc/ir"
	"risc1/internal/rv32"
)

// The three code generators share two layers: asmOut, the assembly
// text sink with the per-function block loop and the data section, and
// frame, one function's storage map. The two load/store machines,
// risc1 and rv32, also share lsgen, the value-placement core: every IR
// value has a register home or a memory cell, and lsgen moves values
// between the two. The per-target differences are data, held in an
// lsTarget. The CISC generator uses memory operands directly, so it
// has no use for the core.

// asmOut accumulates one program's assembly text.
type asmOut struct {
	prog *ir.Program
	b    strings.Builder
	fn   *ir.Func // function being generated
}

func (o *asmOut) raw(s string) { o.b.WriteString(s) }

// emit writes one tab-indented instruction or directive line.
func (o *asmOut) emit(format string, args ...any) {
	o.b.WriteByte('\t')
	fmt.Fprintf(&o.b, format, args...)
	o.b.WriteByte('\n')
}

func (o *asmOut) label(l string) {
	o.b.WriteString(l)
	o.b.WriteString(":\n")
}

func (o *asmOut) blockLabel(b *ir.Block) string { return ".L" + o.fn.Name + "_" + b.Name }

// body emits the blocks of the current function in layout order; term
// gets each block's layout successor, whose label a fallthrough
// reaches for free.
func (o *asmOut) body(instr func(*ir.Instr) error, term func(t *ir.Term, next *ir.Block)) error {
	for i, b := range o.fn.Blocks {
		o.label(o.blockLabel(b))
		for k := range b.Instrs {
			if err := instr(&b.Instrs[k]); err != nil {
				return err
			}
		}
		var next *ir.Block
		if i+1 < len(o.fn.Blocks) {
			next = o.fn.Blocks[i+1]
		}
		term(&b.Term, next)
	}
	return nil
}

// emitData lays out globals and string literals after the code; leader
// starts a comment in the target's assembly syntax.
func (o *asmOut) emitData(leader string) {
	o.raw("\n" + leader + " data\n")
	o.emit(".align 4")
	for _, gl := range o.prog.Globals {
		o.label(gl.Name)
		switch {
		case gl.InitStr != "":
			o.emit(".asciz %q", gl.InitStr)
			if pad := gl.Size - len(gl.InitStr) - 1; pad > 0 {
				o.emit(".space %d", pad)
			}
		case gl.Char:
			o.emit(".byte %d", gl.Init)
		case gl.Scalar:
			o.emit(".word %d", gl.Init)
		default:
			o.emit(".space %d", gl.Size)
		}
		o.emit(".align 4")
	}
	for _, s := range o.prog.Strings {
		o.label(s.Label)
		o.emit(".asciz %q", s.Value)
		o.emit(".align 4")
	}
}

// frame is where one function keeps its values: temporaries per the
// allocator, variables in registers or at offsets from the frame base.
type frame struct {
	alloc     allocation
	varReg    map[*ir.Var]int // register-resident variables
	frameOff  map[*ir.Var]int // memory-resident variables
	frameMem  int             // bytes of arrays + memory-resident variables
	frameSize int             // frameMem, spill slots and any save area
}

// reset empties the storage map for the next function.
func (f *frame) reset() {
	f.varReg = make(map[*ir.Var]int)
	f.frameOff = make(map[*ir.Var]int)
}

// memChar reports whether a variable is a one-byte memory cell: stores
// truncate and loads zero-extend. Register-resident char locals and
// char parameters hold full words on every backend (parameters are
// passed as words, the usual C integer promotion).
func (f *frame) memChar(v *ir.Var) bool {
	_, inReg := f.varReg[v]
	return v.Char && !inReg && v.Kind != ir.VarParam
}

// spillOff returns the frame offset of a spill slot, past the
// variables.
func (f *frame) spillOff(slot int) int { return f.frameMem + 4*slot }

// reg is a register number offset into regNames, so one value carries
// its target's spelling; %s prints it without allocating.
type reg uint8

// regNames spells the risc1 registers (0..31) and then the rv32 ones
// by ABI name (32..63).
var regNames = func() (n [64]string) {
	for i := range 32 {
		n[i] = fmt.Sprintf("r%d", i)
		n[32+i] = rv32.RegName(uint8(i))
	}
	return n
}()

func (r reg) String() string { return regNames[r] }

// lsTarget describes a load/store machine to the shared core.
type lsTarget struct {
	regs               reg // this target's first entry in regNames
	base               int // frame base register
	scratch1, scratch2 int // straight-line scratch registers
	argBase            int // first argument register, also the result
	immOK              func(int32) bool
	load, store        [2]string // word and char-cell mnemonics
	mov                string    // register copy
	la                 string    // load a label's address
	addi               string    // add an immediate
	mem                string    // format of a memory access: op, reg, base, offset
	addBase            string    // format adding the frame base into a register
	neg, com           string    // formats of negate and complement: dst, src
	callNop            bool      // fill each call's delay slot with a nop
}

// lsgen is the value-placement core of the risc1 and rv32 generators.
type lsgen struct {
	asmOut
	frame
	t *lsTarget
}

func (g *lsgen) r(n int) reg { return g.t.regs + reg(n) }

func (g *lsgen) loadOp(char bool) string {
	if char {
		return g.t.load[1]
	}
	return g.t.load[0]
}

func (g *lsgen) storeOp(char bool) string {
	if char {
		return g.t.store[1]
	}
	return g.t.store[0]
}

// mem emits a load or store of register r at base+off.
func (g *lsgen) mem(op string, r, base, off int) {
	g.emit(g.t.mem, op, g.r(r), g.r(base), off)
}

// move copies register rs into rd unless they are the same.
func (g *lsgen) move(rd, rs int) {
	if rd != rs {
		g.emit("%s %s, %s", g.t.mov, g.r(rd), g.r(rs))
	}
}

// regOf returns the register already holding a value, if any.
func (g *lsgen) regOf(v ir.Value) (int, bool) {
	switch v.Kind {
	case ir.ValConst:
		if v.C == 0 {
			return 0, true
		}
	case ir.ValTemp:
		if l := g.alloc.loc[v.Temp]; l.reg >= 0 {
			return l.reg, true
		}
	case ir.ValVar:
		if r, ok := g.varReg[v.Var]; ok {
			return r, true
		}
	}
	return 0, false
}

// frameAccess emits a load or store of a frame cell, forming the
// address in the second scratch register when the offset exceeds the
// immediate field.
func (g *lsgen) frameAccess(op string, r, off int) {
	if g.t.immOK(int32(off)) {
		g.mem(op, r, g.t.base, off)
		return
	}
	g.frameAddr(g.t.scratch2, off)
	g.mem(op, r, g.t.scratch2, 0)
}

// frameAddr forms the frame address base+off in register r, for
// offsets past the immediate field.
func (g *lsgen) frameAddr(r, off int) {
	g.emit("li %s, %d", g.r(r), off)
	g.emit(g.t.addBase, g.r(r), g.r(g.t.base))
}

// loadInto materializes a value in the given register.
func (g *lsgen) loadInto(v ir.Value, rd int) {
	switch v.Kind {
	case ir.ValConst:
		g.emit("li %s, %d", g.r(rd), v.C)
	case ir.ValTemp:
		if l := g.alloc.loc[v.Temp]; l.reg >= 0 {
			g.move(rd, l.reg)
		} else {
			g.frameAccess(g.loadOp(false), rd, g.spillOff(l.slot))
		}
	case ir.ValVar:
		vr := v.Var
		if r, ok := g.varReg[vr]; ok {
			g.move(rd, r)
			return
		}
		if vr.Kind == ir.VarGlobal {
			g.emit("%s %s, %s", g.t.la, g.r(rd), vr.Name)
			g.mem(g.loadOp(vr.Char), rd, rd, 0)
		} else {
			g.frameAccess(g.loadOp(g.memChar(vr)), rd, g.frameOff[vr])
		}
	}
}

// readVal returns a register holding the value, loading into the given
// scratch register when it has no home of its own.
func (g *lsgen) readVal(v ir.Value, scratch int) int {
	if r, ok := g.regOf(v); ok {
		return r
	}
	g.loadInto(v, scratch)
	return scratch
}

// dstReg picks the register an instruction should compute into; store
// reports whether writeBack must follow.
func (g *lsgen) dstReg(d ir.Value) (r int, store bool) {
	if r, ok := g.regOf(d); ok && d.Kind != ir.ValConst {
		return r, false
	}
	return g.t.scratch1, true
}

// writeBack stores a computed value to a spilled temporary or a
// memory-resident variable.
func (g *lsgen) writeBack(d ir.Value, r int) {
	switch d.Kind {
	case ir.ValTemp:
		g.frameAccess(g.storeOp(false), r, g.spillOff(g.alloc.loc[d.Temp].slot))
	case ir.ValVar:
		vr := d.Var
		if vr.Kind == ir.VarGlobal {
			g.emit("%s %s, %s", g.t.la, g.r(g.t.scratch2), vr.Name)
			g.mem(g.storeOp(vr.Char), r, g.t.scratch2, 0)
		} else {
			g.frameAccess(g.storeOp(g.memChar(vr)), r, g.frameOff[vr])
		}
	}
}

// setDst routes a value sitting in register r to the destination.
func (g *lsgen) setDst(d ir.Value, r int) {
	if rd, ok := g.regOf(d); ok {
		g.move(rd, r)
		return
	}
	g.writeBack(d, r)
}

// copyTo implements Dst = A, using at most one instruction when both
// sides have register homes.
func (g *lsgen) copyTo(d, a ir.Value) {
	if rd, ok := g.regOf(d); ok {
		g.loadInto(a, rd)
		return
	}
	g.writeBack(d, g.readVal(a, g.t.scratch1))
}

// call marshals the arguments into the argument registers, calls fn
// and routes its result to dst.
func (g *lsgen) call(fn string, args []ir.Value, dst ir.Value) {
	for i, arg := range args {
		g.loadInto(arg, g.t.argBase+i)
	}
	g.emit("call %s", fn)
	if g.t.callNop {
		g.emit("nop")
	}
	if dst.Valid() {
		g.setDst(dst, g.t.argBase)
	}
}

// instr emits the IR instructions both load/store machines lower the
// same way; the targets handle arithmetic themselves.
func (g *lsgen) instr(in *ir.Instr) error {
	switch in.Op {
	case ir.OpCopy:
		g.copyTo(in.Dst, in.A)
		return nil

	case ir.OpCall:
		g.call(in.Label, in.Args, in.Dst)
		return nil

	case ir.OpStore:
		a := g.readVal(in.A, g.t.scratch1)
		b := g.readVal(in.B, g.t.scratch2)
		g.mem(g.storeOp(in.Size == 1), b, a, 0)
		return nil
	}

	// The rest compute into a register, written back afterwards when
	// the destination has no register home.
	rd, store := g.dstReg(in.Dst)
	switch in.Op {
	case ir.OpNeg, ir.OpCom:
		form := g.t.neg
		if in.Op == ir.OpCom {
			form = g.t.com
		}
		g.emit(form, g.r(rd), g.r(g.readVal(in.A, g.t.scratch1)))

	case ir.OpAddr:
		vr := in.Var
		if vr.Kind == ir.VarGlobal {
			g.emit("%s %s, %s", g.t.la, g.r(rd), vr.Name)
			break
		}
		off, ok := g.frameOff[vr]
		if !ok { // RISC I keeps parameters in window registers
			return errf(in.Line, "cannot take the address of register parameter %q", vr.Name)
		}
		if g.t.immOK(int32(off)) {
			g.emit("%s %s, %s, %d", g.t.addi, g.r(rd), g.r(g.t.base), off)
		} else {
			g.frameAddr(rd, off)
		}

	case ir.OpAddrStr:
		g.emit("%s %s, %s", g.t.la, g.r(rd), in.Label)

	case ir.OpLoad:
		g.mem(g.loadOp(in.Size == 1), rd, g.readVal(in.A, g.t.scratch1), 0)

	default:
		return errf(in.Line, "internal: unhandled IR op %d", in.Op)
	}
	if store {
		g.writeBack(in.Dst, rd)
	}
	return nil
}

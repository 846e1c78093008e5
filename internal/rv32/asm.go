package rv32

import (
	"encoding/binary"
	"strings"

	"risc1/internal/syntax"
)

// Program is the output of the rv32 assembler.
type Program struct{ syntax.Program }

func errf(line int, format string, args ...any) error {
	return syntax.Errorf(line, "rv32: "+format, args...)
}

// Assemble translates rv32 assembly into a loadable program.
//
// Operand syntax follows RISC-V conventions: registers by number ("x5")
// or ABI name ("t0", "a0", "sp"), loads/stores/jalr as "off(reg)",
// branches and jumps take a label or expression. The pseudo-
// instructions li, la, mv, nop, j, jr, call, ret, neg, not, beqz, bnez,
// ble and bgt expand to base instructions at parse time. Data
// directives match the other assemblers'.
func Assemble(src string) (*Program, error) {
	a, err := dialect.Parse(src)
	if err != nil {
		return nil, err
	}
	prog := &Program{}
	if err := a.Link(&prog.Program); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustAssemble panics on error; for known-good embedded sources.
func MustAssemble(src string) *Program {
	prog, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// inst is one parsed instruction. li and la take one word when the
// value is a literal that fits an addi immediate, else two (lui+addi);
// the choice is made at parse time so layout stays single-pass.
type inst struct {
	op           Op
	rd, rs1, rs2 uint8
	imm          syntax.Expr // immediate / offset / branch+jump target / li value
	li           bool        // li/la pseudo-instruction
	wide         bool        // li: lui+addi form (8 bytes)
}

type item = syntax.Item[inst]

var dialect = &syntax.Dialect[inst]{
	Name:   "rv32",
	Errorf: errf,
	Inst:   parseInst,
	Layout: func(in *inst) (uint32, uint32) {
		if in.wide {
			return 8, 4
		}
		return 4, 4
	},
	Encode: encodeItem,
}

// register consumes a register name.
func register(c *syntax.Cursor) (uint8, error) {
	if c.Pos < len(c.Toks) && c.Toks[c.Pos].Kind == syntax.Ident {
		if r, ok := regByName(strings.ToLower(c.Toks[c.Pos].Text)); ok {
			c.Pos++
			return r, nil
		}
	}
	if c.Pos < len(c.Toks) {
		return 0, errf(c.Line, "expected register, got %q", c.Toks[c.Pos].Text)
	}
	return 0, errf(c.Line, "missing register operand")
}

// offReg consumes "off(reg)"; a bare "(reg)" means offset zero.
func offReg(c *syntax.Cursor) (syntax.Expr, uint8, error) {
	var off syntax.Expr
	if !(c.Pos < len(c.Toks) && c.Toks[c.Pos].Kind == syntax.Punct && c.Toks[c.Pos].Text == "(") {
		e, err := c.Expr()
		if err != nil {
			return nil, 0, err
		}
		off = e
	}
	if !c.Punct("(") {
		return nil, 0, errf(c.Line, "expected '(reg)' in memory operand")
	}
	r, err := register(c)
	if err != nil {
		return nil, 0, err
	}
	if !c.Punct(")") {
		return nil, 0, errf(c.Line, "missing ')' in memory operand")
	}
	return off, r, nil
}

// memOperand is the destination of an "off(reg)" operand.
type memOperand struct {
	off  *syntax.Expr
	base *uint8
}

// operand parses one operand into dst: a register into *uint8, an
// expression into *syntax.Expr, "off(reg)" into a memOperand.
func operand(c *syntax.Cursor, dst any) (err error) {
	switch d := dst.(type) {
	case *uint8:
		*d, err = register(c)
	case *syntax.Expr:
		*d, err = c.Expr()
	case memOperand:
		*d.off, *d.base, err = offReg(c)
	}
	return err
}

// operands parses a comma-separated operand list with operand, one
// element of dst per operand, and checks that nothing follows it. Each
// dialect keeps this loop so that operand is a direct call: through a
// function value, the pointers in dst would move the instruction being
// parsed to the heap.
func operands(c *syntax.Cursor, dst ...any) error {
	for i, d := range dst {
		if i > 0 {
			if err := c.Comma(); err != nil {
				return err
			}
		}
		if err := operand(c, d); err != nil {
			return err
		}
	}
	return c.End()
}

func parseInst(a *syntax.Assembler[inst], name string, c *syntax.Cursor) error {
	// Pseudo-instructions first; each rewrites into one base item
	// (li/la may take two words, decided here so layout stays
	// single-pass).
	var in inst
	var err error
	switch name {
	case "nop":
		in.op, err = ADDI, c.End()
	case "mv":
		in.op, err = ADDI, operands(c, &in.rd, &in.rs1)
	case "neg":
		in.op, err = SUB, operands(c, &in.rd, &in.rs2)
	case "not":
		in.op, in.imm = XORI, syntax.Num{V: -1}
		err = operands(c, &in.rd, &in.rs1)
	case "li", "la":
		in.li, in.wide = true, true
		if err = operands(c, &in.rd, &in.imm); err == nil {
			if v, ok := syntax.LiteralValue(in.imm); ok && v >= -2048 && v <= 2047 {
				in.wide = false
			}
		}
	case "j", "call":
		in.op, err = JAL, operands(c, &in.imm)
		if name == "call" {
			in.rd = RegRA
		}
	case "jr":
		in.op, err = JALR, operands(c, &in.rs1)
	case "ret":
		in.op, in.rs1, err = JALR, RegRA, c.End()
	case "beqz", "bnez":
		in.op = BEQ
		if name == "bnez" {
			in.op = BNE
		}
		err = operands(c, &in.rs1, &in.imm)
	case "ble", "bgt":
		// x <= y  ==  y >= x;  x > y  ==  y < x.
		in.op = BGE
		if name == "bgt" {
			in.op = BLT
		}
		err = operands(c, &in.rs2, &in.rs1, &in.imm)
	default:
		err = parseBase(&in, name, c)
	}
	if err != nil {
		return err
	}
	a.AddInst(c.Line, in)
	return nil
}

// parseBase parses a base instruction in its format's operand order.
func parseBase(in *inst, name string, c *syntax.Cursor) error {
	op, ok := ByName(name)
	if !ok {
		return errf(c.Line, "unknown instruction %q", name)
	}
	in.op = op
	info, _ := Lookup(op)
	switch info.Fmt {
	case FmtR:
		return operands(c, &in.rd, &in.rs1, &in.rs2)
	case FmtI:
		if info.Opcode == opcLoad || op == JALR {
			return operands(c, &in.rd, memOperand{&in.imm, &in.rs1})
		}
		return operands(c, &in.rd, &in.rs1, &in.imm)
	case FmtIS:
		return operands(c, &in.rd, &in.rs1, &in.imm)
	case FmtS:
		return operands(c, &in.rs2, memOperand{&in.imm, &in.rs1})
	case FmtB:
		return operands(c, &in.rs1, &in.rs2, &in.imm)
	case FmtU, FmtJ:
		return operands(c, &in.rd, &in.imm)
	}
	return c.End() // FmtSys: no operands
}

func encodeItem(out []byte, it *item, syms map[string]uint32) ([]byte, error) {
	if !it.Inst.li {
		w, err := encodeInst(it, syms)
		if err != nil {
			return nil, err
		}
		return binary.BigEndian.AppendUint32(out, w), nil
	}
	in := &it.Inst
	v, err := in.imm.Eval(syms)
	if err != nil {
		return nil, errf(it.Line, "%v", err)
	}
	if !in.wide {
		w, err := Encode(ADDI, in.rd, RegZero, 0, int32(v))
		if err != nil {
			return nil, errf(it.Line, "%v", err)
		}
		return binary.BigEndian.AppendUint32(out, w), nil
	}
	u := uint32(v)
	hi := (u + 0x800) >> 12
	lo := int32(u) - int32(hi<<12)
	wHi, err := Encode(LUI, in.rd, 0, 0, int32(hi&0xfffff))
	if err != nil {
		return nil, errf(it.Line, "%v", err)
	}
	wLo, err := Encode(ADDI, in.rd, in.rd, 0, lo)
	if err != nil {
		return nil, errf(it.Line, "%v", err)
	}
	out = binary.BigEndian.AppendUint32(out, wHi)
	return binary.BigEndian.AppendUint32(out, wLo), nil
}

func encodeInst(it *item, syms map[string]uint32) (uint32, error) {
	in := &it.Inst
	info, _ := Lookup(in.op)
	var imm int32
	if in.imm != nil {
		v, err := in.imm.Eval(syms)
		if err != nil {
			return 0, errf(it.Line, "%v", err)
		}
		imm = int32(v)
	}
	switch info.Fmt {
	case FmtB, FmtJ:
		// Targets are absolute addresses; the formats encode pc-relative.
		imm -= int32(it.Addr)
		if info.Fmt == FmtB && (imm < -4096 || imm > 4095) {
			return 0, errf(it.Line, "branch target out of the ±4 KiB range (offset %d)", imm)
		}
	}
	w, err := Encode(in.op, in.rd, in.rs1, in.rs2, imm)
	if err != nil {
		return 0, errf(it.Line, "%v", err)
	}
	return w, nil
}

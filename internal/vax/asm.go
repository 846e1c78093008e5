package vax

import (
	"encoding/binary"
	"strconv"
	"strings"

	"risc1/internal/syntax"
)

// Program is the output of the baseline assembler. Its text size counts
// .entry masks as well as instructions.
type Program struct{ syntax.Program }

func errf(line int, format string, args ...any) error {
	return syntax.Errorf(line, "vax: "+format, args...)
}

// Assemble translates baseline CISC assembly into a loadable program.
//
// Operand syntax (VAX flavour): "$e" immediate, "rN"/"ap"/"fp"/"sp"
// register, "(rN)" deferred, "(rN)+" autoincrement, "-(rN)" autodecrement,
// "e(rN)" displacement, bare "e" absolute. Branches take a label.
// Procedure bodies start with ".entry [regs...]" giving the register-save
// mask for CALLS. Data directives match the RISC assembler's.
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

// operandSrc is a parsed operand before encoding.
type operandSrc struct {
	mode     Mode
	reg      uint8
	disp     syntax.Expr // displacement / immediate / absolute / branch target
	dispSize Size        // for displacement modes, chosen at parse time
}

// inst is one parsed instruction, or a .entry register-save mask.
type inst struct {
	isMask   bool   // a .entry directive, not an instruction
	mask     uint16 // .entry register-save mask
	op       Op
	operands []operandSrc
}

type item = syntax.Item[inst]

var dialect = &syntax.Dialect[inst]{
	Name:      "vax",
	Errorf:    errf,
	Inst:      parseInst,
	Directive: parseEntry,
	Layout:    sizeOf,
	Encode:    encodeItem,
	// A procedure's .entry mask is not where execution starts.
	Executable: func(in *inst) bool { return !in.isMask },
}

func regName(s string) (uint8, bool) {
	switch strings.ToLower(s) {
	case "ap":
		return RegAP, true
	case "fp":
		return RegFP, true
	case "sp":
		return RegSP, true
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'R') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < NumRegs-1 { // r15 reserved
			return uint8(n), true
		}
	}
	return 0, false
}

// isRegToken reports whether the token at pos names a register.
func isRegToken(c *syntax.Cursor, pos int) (uint8, bool) {
	if pos < len(c.Toks) && c.Toks[pos].Kind == syntax.Ident {
		return regName(c.Toks[pos].Text)
	}
	return 0, false
}

// parseOperand parses one general operand.
func parseOperand(c *syntax.Cursor, arg Arg) (operandSrc, error) {
	if c.Done() {
		return operandSrc{}, errf(c.Line, "missing operand")
	}
	// Branch displacement: a bare expression.
	if arg.Kind == ArgBr8 || arg.Kind == ArgBr16 {
		e, err := c.Expr()
		return operandSrc{disp: e}, err
	}
	t := c.Toks[c.Pos]
	// $expr — immediate.
	if t.Kind == syntax.Punct && t.Text == "$" {
		c.Pos++
		e, err := c.Expr()
		return operandSrc{mode: ModeImmAbs, reg: immSub, disp: e}, err
	}
	// -(rN) — autodecrement. A '-' followed by '(' reg ')'.
	if t.Kind == syntax.Punct && t.Text == "-" {
		if r, ok := isRegToken(c, c.Pos+2); ok && c.Pos+3 < len(c.Toks)+1 &&
			c.Toks[c.Pos+1].Kind == syntax.Punct && c.Toks[c.Pos+1].Text == "(" {
			if c.Pos+3 < len(c.Toks) && c.Toks[c.Pos+3].Kind == syntax.Punct && c.Toks[c.Pos+3].Text == ")" {
				c.Pos += 4
				return operandSrc{mode: ModeAutoDec, reg: r}, nil
			}
		}
		// Otherwise fall through: a negative displacement/absolute.
	}
	// (rN) or (rN)+ — deferred / autoincrement.
	if t.Kind == syntax.Punct && t.Text == "(" {
		if r, ok := isRegToken(c, c.Pos+1); ok &&
			c.Pos+2 < len(c.Toks) && c.Toks[c.Pos+2].Kind == syntax.Punct && c.Toks[c.Pos+2].Text == ")" {
			c.Pos += 3
			if c.Punct("+") {
				return operandSrc{mode: ModeAutoInc, reg: r}, nil
			}
			return operandSrc{mode: ModeDeferred, reg: r}, nil
		}
		// Otherwise it is a parenthesized expression.
	}
	// rN — register direct.
	if t.Kind == syntax.Ident {
		if r, ok := regName(t.Text); ok {
			c.Pos++
			return operandSrc{mode: ModeReg, reg: r}, nil
		}
	}
	// expr or expr(rN) — absolute or displacement.
	e, err := c.Expr()
	if err != nil {
		return operandSrc{}, err
	}
	if c.Punct("(") {
		r, ok := isRegToken(c, c.Pos)
		if !ok {
			return operandSrc{}, errf(c.Line, "expected register in displacement operand")
		}
		c.Pos++
		if !c.Punct(")") {
			return operandSrc{}, errf(c.Line, "missing ')' in displacement operand")
		}
		return operandSrc{mode: dispMode(e), reg: r, disp: e, dispSize: dispSizeOf(e)}, nil
	}
	return operandSrc{mode: ModeImmAbs, reg: absSub, disp: e}, nil
}

// dispMode picks the displacement width from a literal value; symbolic
// displacements get the full 32 bits so layout stays single-pass.
func dispMode(e syntax.Expr) Mode {
	if v, ok := syntax.LiteralValue(e); ok {
		switch {
		case v >= -128 && v <= 127:
			return ModeDisp8
		case v >= -32768 && v <= 32767:
			return ModeDisp16
		}
	}
	return ModeDisp32
}

func dispSizeOf(e syntax.Expr) Size {
	switch dispMode(e) {
	case ModeDisp8:
		return SizeB
	case ModeDisp16:
		return SizeW
	default:
		return SizeL
	}
}

func parseInst(a *syntax.Assembler[inst], name string, c *syntax.Cursor) error {
	op, ok := ByName(name)
	if !ok {
		return errf(c.Line, "unknown instruction %q", name)
	}
	info, _ := Lookup(op)
	in := inst{op: op}
	for i, arg := range info.Args {
		if i > 0 {
			if err := c.Comma(); err != nil {
				return err
			}
		}
		o, err := parseOperand(c, arg)
		if err != nil {
			return err
		}
		in.operands = append(in.operands, o)
	}
	if err := c.End(); err != nil {
		return err
	}
	a.AddInst(c.Line, in)
	return nil
}

// parseEntry parses ".entry [regs...]", a procedure's register-save
// mask for CALLS.
func parseEntry(a *syntax.Assembler[inst], name string, c *syntax.Cursor) (bool, error) {
	if name != ".entry" {
		return false, nil
	}
	var mask uint16
	for !c.Done() {
		if c.Toks[c.Pos].Kind != syntax.Ident {
			return true, errf(c.Line, ".entry expects register names")
		}
		r, ok := regName(c.Toks[c.Pos].Text)
		if !ok || r >= RegAP {
			return true, errf(c.Line, ".entry may only save r0..r11, got %q", c.Toks[c.Pos].Text)
		}
		mask |= 1 << r
		c.Pos++
		if c.Done() {
			break
		}
		if err := c.Comma(); err != nil {
			return true, err
		}
	}
	a.AddInst(c.Line, inst{isMask: true, mask: mask})
	return true, nil
}

// operandBytes is the encoded size of one operand.
func operandBytes(o operandSrc, arg Arg) uint32 {
	switch arg.Kind {
	case ArgBr8:
		return 1
	case ArgBr16:
		return 2
	}
	switch o.mode {
	case ModeReg, ModeDeferred, ModeAutoInc, ModeAutoDec:
		return 1
	case ModeDisp8:
		return 2
	case ModeDisp16:
		return 3
	case ModeDisp32:
		return 5
	case ModeImmAbs:
		if o.reg == immSub {
			return 1 + uint32(arg.Size)
		}
		return 5 // absolute: specifier + 32-bit address
	}
	return 1
}

// instBytes is the encoded size of an instruction.
func instBytes(in *inst) uint32 {
	sz := uint32(1)
	info, _ := Lookup(in.op)
	for i, o := range in.operands {
		sz += operandBytes(o, info.Args[i])
	}
	return sz
}

// sizeOf sizes an item: .entry masks are halfword-aligned, instructions
// unaligned byte streams, as on the VAX.
func sizeOf(in *inst) (size, align uint32) {
	if in.isMask {
		return 2, 2
	}
	return instBytes(in), 1
}

func encodeItem(out []byte, it *item, syms map[string]uint32) ([]byte, error) {
	if it.Inst.isMask {
		return binary.BigEndian.AppendUint16(out, it.Inst.mask), nil
	}
	return encodeInst(out, it, syms)
}

func encodeInst(out []byte, it *item, syms map[string]uint32) ([]byte, error) {
	info, _ := Lookup(it.Inst.op)
	out = append(out, byte(it.Inst.op))
	end := it.Addr + instBytes(&it.Inst) // branch displacements are relative to here
	for i, o := range it.Inst.operands {
		arg := info.Args[i]
		switch arg.Kind {
		case ArgBr8, ArgBr16:
			v, err := o.disp.Eval(syms)
			if err != nil {
				return nil, errf(it.Line, "%v", err)
			}
			d := v - int64(end)
			if arg.Kind == ArgBr8 {
				if d < -128 || d > 127 {
					return nil, errf(it.Line, "branch displacement %d exceeds a byte; use brw", d)
				}
				out = append(out, byte(int8(d)))
			} else {
				if d < -32768 || d > 32767 {
					return nil, errf(it.Line, "branch displacement %d exceeds 16 bits", d)
				}
				var b [2]byte
				binary.BigEndian.PutUint16(b[:], uint16(int16(d)))
				out = append(out, b[:]...)
			}
			continue
		}
		spec := byte(o.mode)<<4 | o.reg
		out = append(out, spec)
		switch o.mode {
		case ModeDisp8, ModeDisp16, ModeDisp32:
			v, err := o.disp.Eval(syms)
			if err != nil {
				return nil, errf(it.Line, "%v", err)
			}
			switch o.mode {
			case ModeDisp8:
				if v < -128 || v > 127 {
					return nil, errf(it.Line, "displacement %d exceeds a byte", v)
				}
				out = append(out, byte(int8(v)))
			case ModeDisp16:
				if v < -32768 || v > 32767 {
					return nil, errf(it.Line, "displacement %d exceeds 16 bits", v)
				}
				var b [2]byte
				binary.BigEndian.PutUint16(b[:], uint16(int16(v)))
				out = append(out, b[:]...)
			default:
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], uint32(v))
				out = append(out, b[:]...)
			}
		case ModeImmAbs:
			v, err := o.disp.Eval(syms)
			if err != nil {
				return nil, errf(it.Line, "%v", err)
			}
			if o.reg == immSub {
				switch arg.Size {
				case SizeB:
					out = append(out, byte(v))
				case SizeW:
					var b [2]byte
					binary.BigEndian.PutUint16(b[:], uint16(v))
					out = append(out, b[:]...)
				default:
					var b [4]byte
					binary.BigEndian.PutUint32(b[:], uint32(v))
					out = append(out, b[:]...)
				}
			} else {
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], uint32(v))
				out = append(out, b[:]...)
			}
		}
	}
	return out, nil
}

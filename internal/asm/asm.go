package asm

import (
	"encoding/binary"
	"strconv"
	"strings"

	"risc1/internal/isa"
	"risc1/internal/syntax"
)

// Options selects assembler behaviour.
type Options struct {
	// Optimize runs the delayed-jump optimizer: NOPs in the shadow of a
	// jump are replaced, where provably safe, by the instruction that
	// preceded the jump — the optimization the paper's compiler applied.
	Optimize bool
}

// Assemble translates RISC I assembly source into a loadable program.
//
// Syntax summary: one instruction or directive per line; comments with
// ';' or '#'; "label:" prefixes; a '.' suffix on a mnemonic sets the
// condition codes (e.g. "sub. r1, r2, r3"). Pseudo-instructions: nop,
// mov, li, call, ret, ba, and b<cond> (beq, bne, blt, ...). Directives:
// .org .equ .word .half .byte .ascii .asciz .space .align.
func Assemble(src string, opts Options) (*Program, error) {
	a, err := dialect.Parse(src)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		a.Items = optimize(a.Items)
	}
	prog := &Program{}
	if err := a.Link(&prog.Program); err != nil {
		return nil, err
	}
	prog.Slots = slotStats(a.Items)
	return prog, nil
}

// MustAssemble is Assemble for known-good embedded sources; it panics on
// error, which indicates a defect in the embedded program.
func MustAssemble(src string, opts Options) *Program {
	prog, err := Assemble(src, opts)
	if err != nil {
		panic(err)
	}
	return prog
}

// inst is one parsed RISC I instruction; its expressions resolve at
// encode time.
type inst struct {
	op     isa.Opcode
	scc    bool
	rd     uint8
	rs1    uint8
	rs2    uint8
	hasImm bool        // short-format immediate present
	immE   syntax.Expr // imm13
	longE  syntax.Expr // imm19 (LDHI) or target address (pc-relative)
	pcRel  bool        // longE is an absolute target; encode longE - addr
}

type item = syntax.Item[inst]

var dialect = &syntax.Dialect[inst]{
	Name:   "asm",
	Errorf: errf,
	Inst:   parseInst,
	Layout: func(*inst) (uint32, uint32) { return isa.InstBytes, 4 },
	Encode: encodeItem,
}

// register parses a register name r0..r31.
func register(c *syntax.Cursor) (uint8, error) {
	if c.Done() || c.Toks[c.Pos].Kind != syntax.Ident {
		return 0, errf(c.Line, "expected register")
	}
	r, ok := regNumber(c.Toks[c.Pos].Text)
	if !ok {
		return 0, errf(c.Line, "expected register, got %q", c.Toks[c.Pos].Text)
	}
	c.Pos++
	return r, nil
}

// source is the destination of a short-source operand ("s2"): a
// register into rs2, or a 13-bit immediate expression.
type source struct{ in *inst }

// operand parses one operand into dst: a register into *uint8, an
// expression into *syntax.Expr, a jump condition into *isa.Cond, and a
// register or expression into a source.
func operand(c *syntax.Cursor, dst any) (err error) {
	switch d := dst.(type) {
	case *uint8:
		*d, err = register(c)
	case *syntax.Expr:
		*d, err = c.Expr()
	case *isa.Cond:
		*d, err = parseCond(c)
	case source:
		if r, ok := regAt(c); ok {
			c.Pos++
			d.in.rs2 = r
			return nil
		}
		d.in.hasImm = true
		d.in.immE, err = c.Expr()
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

// regAt reports whether the next token names a register.
func regAt(c *syntax.Cursor) (uint8, bool) {
	if !c.Done() && c.Toks[c.Pos].Kind == syntax.Ident {
		return regNumber(c.Toks[c.Pos].Text)
	}
	return 0, false
}

func regNumber(s string) (uint8, bool) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumVisibleRegs {
		return 0, false
	}
	return uint8(n), true
}

// Conventional registers for pseudo-instructions: the return address lives
// in local r25, and "ret" skips the call plus its delay slot.
const (
	RetReg    = 25
	RetOffset = 8
)

func parseInst(a *syntax.Assembler[inst], name string, c *syntax.Cursor) error {
	// Optional "." suffix selects condition-code setting.
	scc := false
	if !c.Done() && c.Toks[c.Pos].Text == "." {
		scc = true
		c.Pos++
	}

	// Pseudo-instructions first.
	var in inst
	var err error
	_, rawCall := regAt(c)
	cond, branch := branchCond(name)
	switch {
	case name == "nop":
		in.op, err = isa.ADD, c.End()
	case name == "mov":
		in.op, in.scc = isa.ADD, scc
		if err = operands(c, &in.rd, source{&in}); err == nil && !in.hasImm {
			// mov rd, rs is add rd, rs, 0.
			in.rs1, in.rs2, in.hasImm, in.immE = in.rs2, 0, true, syntax.Num{}
		}
	case name == "li":
		return parseLi(a, c)
	case name == "call" && !rawCall:
		// "call label" is the pseudo (CALLR through r25); the raw
		// three-operand form "call rd, rs1, s2" starts with a register
		// and is the real opcode.
		in.op, in.rd, in.pcRel = isa.CALLR, RetReg, true
		err = operands(c, &in.longE)
	case name == "ret" && c.Done():
		in = inst{op: isa.RET, rd: RetReg, hasImm: true, immE: syntax.Num{V: RetOffset}}
	case branch:
		in.op, in.rd, in.pcRel = isa.JMPR, uint8(cond), true
		err = operands(c, &in.longE)
	default:
		in.scc = scc
		err = parseBase(&in, name, c)
	}
	if err != nil {
		return err
	}
	a.AddInst(c.Line, in)
	return nil
}

// parseLi expands "li rd, expr": one ADD when the value is a literal
// that fits 13 bits, else LDHI plus ADD.
func parseLi(a *syntax.Assembler[inst], c *syntax.Cursor) error {
	var rd uint8
	var e syntax.Expr
	if err := operands(c, &rd, &e); err != nil {
		return err
	}
	if v, ok := syntax.LiteralValue(e); ok && v >= isa.Imm13Min && v <= isa.Imm13Max {
		a.AddInst(c.Line, inst{op: isa.ADD, rd: rd, hasImm: true, immE: syntax.Num{V: v}})
		return nil
	}
	a.AddInst(c.Line, inst{op: isa.LDHI, rd: rd, longE: exprHi{e}})
	a.AddInst(c.Line, inst{op: isa.ADD, rd: rd, rs1: rd, hasImm: true, immE: exprLo{e}})
	return nil
}

// parseBase parses a machine instruction in its format's operand order.
func parseBase(in *inst, name string, c *syntax.Cursor) error {
	op, ok := isa.ByName(name)
	if !ok {
		return errf(c.Line, "unknown instruction %q", name)
	}
	in.op = op
	info := op.Info()
	cond := (*isa.Cond)(&in.rd)
	switch {
	case info.Cond && info.Format == isa.FormatLong: // jmpr cond, target
		in.pcRel = true
		return operands(c, cond, &in.longE)
	case info.Cond: // jmp cond, rs1, s2
		return operands(c, cond, &in.rs1, source{in})
	case info.Format == isa.FormatLong: // ldhi/callr: rd, imm19
		in.pcRel = op == isa.CALLR
		return operands(c, &in.rd, &in.longE)
	case op == isa.RET || op == isa.RETINT: // rd, s2
		return operands(c, &in.rd, source{in})
	case op == isa.GETPSW || op == isa.GTLPC: // rd
		return operands(c, &in.rd)
	case op == isa.PUTPSW: // rs1, s2
		return operands(c, &in.rs1, source{in})
	}
	// rd, rs1, s2 (ALU, loads, stores, call, callint)
	return operands(c, &in.rd, &in.rs1, source{in})
}

// branchCond maps pseudo-branch mnemonics ("ba", "beq", "bne", ...) to jump
// conditions.
func branchCond(name string) (isa.Cond, bool) {
	if name == "ba" {
		return isa.CondAlways, true
	}
	if !strings.HasPrefix(name, "b") || len(name) < 2 {
		return 0, false
	}
	return isa.CondByName(name[1:])
}

func parseCond(c *syntax.Cursor) (isa.Cond, error) {
	if c.Done() || c.Toks[c.Pos].Kind != syntax.Ident {
		return 0, errf(c.Line, "expected jump condition")
	}
	cond, ok := isa.CondByName(strings.ToLower(c.Toks[c.Pos].Text))
	if !ok {
		return 0, errf(c.Line, "unknown jump condition %q", c.Toks[c.Pos].Text)
	}
	c.Pos++
	return cond, nil
}

func isNop(it item) bool {
	in := it.Inst
	return it.Kind == syntax.ItemInst && in.op == isa.ADD && !in.scc &&
		in.rd == 0 && in.rs1 == 0 && !in.hasImm && in.rs2 == 0
}

// encodeItem appends an instruction's big-endian word.
func encodeItem(out []byte, it *item, syms map[string]uint32) ([]byte, error) {
	in, err := encode(it, syms)
	if err != nil {
		return nil, err
	}
	w, err := in.Encode()
	if err != nil {
		return nil, errf(it.Line, "%v", err)
	}
	return binary.BigEndian.AppendUint32(out, w), nil
}

// encode turns an item into an isa.Inst, resolving expressions.
func encode(it *item, syms map[string]uint32) (isa.Inst, error) {
	src := &it.Inst
	in := isa.Inst{Op: src.op, SCC: src.scc, Rd: src.rd, Rs1: src.rs1, Rs2: src.rs2}
	if src.hasImm {
		v, err := src.immE.Eval(syms)
		if err != nil {
			return in, errf(it.Line, "%v", err)
		}
		if v < isa.Imm13Min || v > isa.Imm13Max {
			return in, errf(it.Line, "immediate %d does not fit in 13 bits", v)
		}
		in.Imm = true
		in.Imm13 = int32(v)
	}
	if src.longE != nil {
		v, err := src.longE.Eval(syms)
		if err != nil {
			return in, errf(it.Line, "%v", err)
		}
		if src.pcRel {
			v -= int64(it.Addr)
		}
		if v < isa.Imm19Min || v > isa.Imm19Max {
			return in, errf(it.Line, "displacement %d does not fit in 19 bits", v)
		}
		in.Imm19 = int32(v)
	}
	return in, nil
}

// slotStats counts, after optimization, how each control transfer's delay
// slot ended up: useful instruction or NOP.
func slotStats(items []item) SlotStats {
	var s SlotStats
	for i, it := range items {
		if it.Kind != syntax.ItemInst || it.Inst.op.Info().Class != isa.ClassCtrl {
			continue
		}
		s.Transfers++
		if i+1 < len(items) && isNop(items[i+1]) {
			s.Nops++
		} else {
			s.Filled++
		}
	}
	return s
}

package syntax

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"risc1/internal/mem"
)

// ItemKind classifies an assembly item.
type ItemKind uint8

const (
	ItemInst  ItemKind = iota // one instruction of the dialect
	ItemWord                  // .word
	ItemHalf                  // .half
	ItemByte                  // .byte
	ItemAscii                 // .ascii, .asciz
	ItemSpace                 // .space
	ItemAlign                 // .align
	ItemOrg                   // .org
)

// Item is one unit of layout: an instruction I of the dialect, or a
// data or location directive.
type Item[I any] struct {
	Kind   ItemKind
	Line   int
	Labels []string // labels defined at this item's address
	Inst   I        // for ItemInst
	Addr   uint32   // assigned by layout

	exprs []Expr // .word/.half/.byte values
	str   string // .ascii/.asciz bytes
	count uint32 // .space size, .align boundary, .org address
}

// Dialect is one instruction set's part of the two-pass assembler. The
// shared part collects labels, parses the data and location directives
// (.equ .org .space .align .word .half .byte .ascii .asciz), lays items
// out, emits segments and picks the entry point; the dialect parses and
// encodes its instructions.
type Dialect[I any] struct {
	// Name prefixes the diagnostics that carry no line number.
	Name string
	// Errorf builds the dialect's positioned diagnostic.
	Errorf func(line int, format string, args ...any) error
	// Inst parses one instruction — its lower-cased mnemonic and
	// operands — and adds its items.
	Inst func(a *Assembler[I], name string, c *Cursor) error
	// Directive, if set, is offered each directive the shared parser
	// does not know and reports whether it handled it.
	Directive func(a *Assembler[I], name string, c *Cursor) (bool, error)
	// Layout returns an instruction's encoded size and alignment.
	Layout func(in *I) (size, align uint32)
	// Encode appends the encoding of an instruction item laid out at
	// it.Addr, with every symbol defined.
	Encode func(out []byte, it *Item[I], syms map[string]uint32) ([]byte, error)
	// Executable, if set, reports whether an instruction can be the
	// fallback entry point; unset, every instruction can.
	Executable func(in *I) bool
}

// Assembler holds one assembly in progress: the items of the first pass
// and the symbol table.
type Assembler[I any] struct {
	Items   []Item[I]
	syms    map[string]uint32
	d       *Dialect[I]
	pending []string // labels awaiting the next item
	cur     Cursor   // the line being parsed
	toks    []Token  // the scan buffer, reused from line to line
}

// Parse runs the first pass over src: one instruction or directive per
// line, each optionally preceded by "label:" prefixes. Items is sized
// for one item per line up front.
func (d *Dialect[I]) Parse(src string) (*Assembler[I], error) {
	a := &Assembler[I]{
		Items: make([]Item[I], 0, strings.Count(src, "\n")+1),
		syms:  make(map[string]uint32),
		d:     d,
	}
	for lineNo := 1; ; lineNo++ {
		line, rest, more := strings.Cut(src, "\n")
		if err := a.parseLine(line, lineNo); err != nil {
			return nil, err
		}
		if !more {
			return a, nil
		}
		src = rest
	}
}

// Add appends an item, attaching the labels that precede it.
func (a *Assembler[I]) Add(it Item[I]) {
	it.Labels = a.pending
	a.pending = nil
	a.Items = append(a.Items, it)
}

// AddInst appends an instruction item.
func (a *Assembler[I]) AddInst(line int, in I) {
	a.Add(Item[I]{Kind: ItemInst, Line: line, Inst: in})
}

func (a *Assembler[I]) parseLine(line string, lineNo int) error {
	toks, err := ScanLine(a.toks[:0], line, lineNo)
	if err != nil {
		return err
	}
	a.toks = toks
	for len(toks) >= 2 && toks[0].Kind == Ident && toks[1].Kind == Punct && toks[1].Text == ":" {
		a.pending = append(a.pending, toks[0].Text)
		toks = toks[2:]
	}
	if len(toks) == 0 {
		return nil
	}
	if toks[0].Kind != Ident {
		return a.d.Errorf(lineNo, "expected mnemonic or directive, got %q", toks[0].Text)
	}
	head := strings.ToLower(toks[0].Text)
	a.cur = Cursor{Toks: toks[1:], Line: lineNo, errf: a.d.Errorf}
	c := &a.cur
	if strings.HasPrefix(head, ".") {
		return a.directive(head, c)
	}
	return a.d.Inst(a, head, c)
}

var dataKinds = map[string]ItemKind{
	".org": ItemOrg, ".space": ItemSpace, ".align": ItemAlign,
	".word": ItemWord, ".half": ItemHalf, ".byte": ItemByte,
}

func (a *Assembler[I]) directive(name string, c *Cursor) error {
	line := c.Line
	errf := a.d.Errorf
	switch name {
	case ".equ":
		if c.Done() || c.Toks[c.Pos].Kind != Ident {
			return errf(line, ".equ needs a name")
		}
		sym := c.Toks[c.Pos].Text
		c.Pos++
		if err := c.Comma(); err != nil {
			return err
		}
		e, err := c.Expr()
		if err != nil {
			return err
		}
		if err := c.End(); err != nil {
			return err
		}
		v, err := e.Eval(a.syms)
		if err != nil {
			return errf(line, ".equ value must be computable here: %v", err)
		}
		if _, dup := a.syms[sym]; dup {
			return errf(line, "symbol %q redefined", sym)
		}
		a.syms[sym] = uint32(v)
		return nil

	case ".org", ".space", ".align":
		e, err := c.Expr()
		if err != nil {
			return err
		}
		if err := c.End(); err != nil {
			return err
		}
		v, err := e.Eval(a.syms)
		if err != nil {
			return errf(line, "%s operand must be computable here: %v", name, err)
		}
		if v < 0 {
			return errf(line, "%s operand must be non-negative", name)
		}
		if name == ".align" && (v == 0 || v&(v-1) != 0) {
			return errf(line, ".align needs a power of two")
		}
		if v > math.MaxUint32 {
			return errf(line, "%s operand %#x does not fit in 32 bits", name, v)
		}
		a.Add(Item[I]{Kind: dataKinds[name], Line: line, count: uint32(v)})
		return nil

	case ".word", ".half", ".byte":
		var exprs []Expr
		for {
			e, err := c.Expr()
			if err != nil {
				return err
			}
			exprs = append(exprs, e)
			if c.Done() {
				break
			}
			if err := c.Comma(); err != nil {
				return err
			}
		}
		a.Add(Item[I]{Kind: dataKinds[name], Line: line, exprs: exprs})
		return nil

	case ".ascii", ".asciz":
		if c.Done() || c.Toks[c.Pos].Kind != String {
			return errf(line, "%s needs a string", name)
		}
		s := c.Toks[c.Pos].Text
		c.Pos++
		if err := c.End(); err != nil {
			return err
		}
		if name == ".asciz" {
			s += "\x00"
		}
		a.Add(Item[I]{Kind: ItemAscii, Line: line, str: s})
		return nil
	}
	if a.d.Directive != nil {
		if ok, err := a.d.Directive(a, name, c); ok {
			return err
		}
	}
	return errf(line, "unknown directive %q", name)
}

// Link is the second pass: it lays the items out, then encodes them
// into prog.
func (a *Assembler[I]) Link(prog *Program) error {
	if err := a.layout(); err != nil {
		return err
	}
	return a.emit(prog)
}

// size returns an item's size and alignment in bytes.
func (a *Assembler[I]) size(it *Item[I]) (size, align uint32) {
	switch it.Kind {
	case ItemInst:
		return a.d.Layout(&it.Inst)
	case ItemWord, ItemHalf, ItemByte:
		w := width(it.Kind)
		return w * uint32(len(it.exprs)), w
	case ItemAscii:
		return uint32(len(it.str)), 1
	case ItemSpace:
		return it.count, 1
	}
	return 0, 1 // .org and .align move the location counter in layout
}

// width is the size of one .word, .half or .byte value.
func width(k ItemKind) uint32 {
	switch k {
	case ItemWord:
		return 4
	case ItemHalf:
		return 2
	}
	return 1
}

func alignUp(lc uint64, a uint32) uint64 {
	return (lc + uint64(a) - 1) &^ (uint64(a) - 1)
}

// layout assigns addresses and defines labels. The location counter is
// 64-bit, so it cannot wrap, and no image may end past the default
// machine memory: compiles are cached independently of a request's
// memory size, and the bound keeps emit from allocating for an image
// no machine could load.
func (a *Assembler[I]) layout() error {
	var lc uint64
	for i := range a.Items {
		it := &a.Items[i]
		switch it.Kind {
		case ItemOrg:
			if uint64(it.count) < lc {
				return a.d.Errorf(it.Line, ".org %#x moves backwards from %#x", it.count, lc)
			}
			lc = uint64(it.count)
		case ItemAlign:
			lc = alignUp(lc, it.count)
		}
		size, align := a.size(it)
		lc = alignUp(lc, align)
		if end := lc + uint64(size); end > mem.DefaultSize {
			return a.d.Errorf(it.Line, "image ends at %#x, past the %d-byte machine memory", end, mem.DefaultSize)
		}
		it.Addr = uint32(lc)
		if err := a.define(it.Labels, it.Addr, it.Line); err != nil {
			return err
		}
		lc += uint64(size)
	}
	return a.define(a.pending, uint32(lc), 0)
}

// define binds labels to addr; line 0 marks the trailing labels, whose
// diagnostic has no line.
func (a *Assembler[I]) define(labels []string, addr uint32, line int) error {
	for _, l := range labels {
		if _, dup := a.syms[l]; dup {
			if line == 0 {
				return fmt.Errorf("%s: symbol %q redefined", a.d.Name, l)
			}
			return a.d.Errorf(line, "symbol %q redefined", l)
		}
		a.syms[l] = addr
	}
	return nil
}

// emit encodes every item into segments.
func (a *Assembler[I]) emit(prog *Program) error {
	*prog = Program{Symbols: a.syms, name: a.d.Name}
	var cur *Segment
	seg := func(addr uint32) *Segment {
		if cur == nil || cur.Addr+uint32(len(cur.Data)) != addr {
			prog.Segments = append(prog.Segments, Segment{Addr: addr})
			cur = &prog.Segments[len(prog.Segments)-1]
		}
		return cur
	}
	for i := range a.Items {
		it := &a.Items[i]
		switch it.Kind {
		case ItemInst:
			s := seg(it.Addr)
			n := len(s.Data)
			var err error
			if s.Data, err = a.d.Encode(s.Data, it, a.syms); err != nil {
				return err
			}
			prog.TextSize += len(s.Data) - n
		case ItemWord, ItemHalf, ItemByte:
			sz := width(it.Kind)
			for j, e := range it.exprs {
				v, err := e.Eval(a.syms)
				if err != nil {
					return a.d.Errorf(it.Line, "%v", err)
				}
				s := seg(it.Addr + uint32(j)*sz)
				switch sz {
				case 4:
					s.Data = binary.BigEndian.AppendUint32(s.Data, uint32(v))
				case 2:
					s.Data = binary.BigEndian.AppendUint16(s.Data, uint16(v))
				default:
					s.Data = append(s.Data, byte(v))
				}
			}
			prog.DataSize += int(sz) * len(it.exprs)
		case ItemAscii:
			s := seg(it.Addr)
			s.Data = append(s.Data, it.str...)
			prog.DataSize += len(it.str)
		case ItemSpace:
			if it.count > 0 {
				s := seg(it.Addr)
				s.Data = append(s.Data, make([]byte, it.count)...)
				prog.DataSize += int(it.count)
			}
		}
	}
	prog.Entry = a.entry()
	return nil
}

// entry is the one entry rule: "start", then "main", then the first
// executable instruction.
func (a *Assembler[I]) entry() uint32 {
	if v, ok := a.syms["start"]; ok {
		return v
	}
	if v, ok := a.syms["main"]; ok {
		return v
	}
	for i := range a.Items {
		it := &a.Items[i]
		if it.Kind == ItemInst && (a.d.Executable == nil || a.d.Executable(&it.Inst)) {
			return it.Addr
		}
	}
	return 0
}

// Cursor walks the operand tokens of one source line.
type Cursor struct {
	Toks []Token
	Pos  int
	Line int
	errf func(line int, format string, args ...any) error
}

// Done reports whether every token has been consumed.
func (c *Cursor) Done() bool { return c.Pos >= len(c.Toks) }

// Punct consumes the punctuation s if it is next.
func (c *Cursor) Punct(s string) bool {
	if c.Pos < len(c.Toks) && c.Toks[c.Pos].Kind == Punct && c.Toks[c.Pos].Text == s {
		c.Pos++
		return true
	}
	return false
}

// Comma consumes a ','.
func (c *Cursor) Comma() error {
	if c.Punct(",") {
		return nil
	}
	return c.errf(c.Line, "expected ','")
}

// End checks that no operands remain.
func (c *Cursor) End() error {
	if !c.Done() {
		return c.errf(c.Line, "unexpected trailing operands")
	}
	return nil
}

// Expr parses a constant expression.
func (c *Cursor) Expr() (Expr, error) {
	ep := &Parser{Toks: c.Toks, Pos: c.Pos, Line: c.Line}
	e, err := ep.Parse()
	if err != nil {
		return nil, err
	}
	c.Pos = ep.Pos
	return e, nil
}

package syntax_test

import (
	"fmt"
	"reflect"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// image is what a test compares of an assembled program.
type image struct {
	segs       []seg
	syms       map[string]uint32
	entry      uint32
	text, data int
}

type seg struct {
	Addr uint32
	Data []byte
}

func imageOf[S ~struct {
	Addr uint32
	Data []byte
}](segs []S, syms map[string]uint32, entry uint32, text, data int) *image {
	im := &image{syms: syms, entry: entry, text: text, data: data}
	for _, s := range segs {
		im.segs = append(im.segs, seg(s))
	}
	return im
}

// backends drives the three assemblers built on the shared core.
var backends = []struct {
	name     string
	assemble func(src string) (*image, error)
	// diag formats a positioned diagnostic the way the backend does.
	diag func(line int, msg string) string
}{
	{"risc1", func(src string) (*image, error) {
		p, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			return nil, err
		}
		return imageOf(p.Segments, p.Symbols, p.Entry, p.TextSize, p.DataSize), nil
	}, func(line int, msg string) string { return fmt.Sprintf("asm: line %d: %s", line, msg) }},
	{"cisc", func(src string) (*image, error) {
		p, err := vax.Assemble(src)
		if err != nil {
			return nil, err
		}
		return imageOf(p.Segments, p.Symbols, p.Entry, p.TextSize, p.DataSize), nil
	}, func(line int, msg string) string { return fmt.Sprintf("line %d: vax: %s", line, msg) }},
	{"rv32", func(src string) (*image, error) {
		p, err := rv32.Assemble(src)
		if err != nil {
			return nil, err
		}
		return imageOf(p.Segments, p.Symbols, p.Entry, p.TextSize, p.DataSize), nil
	}, func(line int, msg string) string { return fmt.Sprintf("line %d: rv32: %s", line, msg) }},
}

// TestAssemblerCore runs every case on every backend it names (all
// three when only is empty). A case expects either the exact
// diagnostic — err is formatted per backend at errLine, or taken
// verbatim from errs — or the exact image.
func TestAssemblerCore(t *testing.T) {
	cases := []struct {
		name    string
		only    string // backend name; empty means all three
		src     string
		errLine int
		err     string            // positioned message, formatted per backend
		errs    map[string]string // verbatim diagnostics by backend
		segs    []seg
		syms    map[string]uint32
		entry   uint32
		text    int
		data    int
	}{
		{
			name: "every data directive",
			src: ".equ K, 3\nw: .word 1, K\nh: .half 0x1234\nb: .byte 5, 6, 7\n.align 8\n" +
				"s: .ascii \"ab\"\nz: .asciz \"c\"\n.space 2\nend:",
			segs: []seg{
				{Addr: 0, Data: []byte{0, 0, 0, 1, 0, 0, 0, 3, 0x12, 0x34, 5, 6, 7}},
				{Addr: 16, Data: []byte{'a', 'b', 'c', 0, 0, 0}},
			},
			syms: map[string]uint32{"K": 3, "w": 0, "h": 8, "b": 10, "s": 16, "z": 18, "end": 22},
			data: 19,
		},
		{
			name: "natural alignment of .half and .word",
			src:  "a: .byte 1\nb: .half 2\nc: .byte 3\nd: .word 4",
			segs: []seg{{Addr: 0, Data: []byte{1}}, {Addr: 2, Data: []byte{0, 2, 3}}, {Addr: 8, Data: []byte{0, 0, 0, 4}}},
			syms: map[string]uint32{"a": 0, "b": 2, "c": 4, "d": 8},
			data: 8,
		},
		{
			name: ".org splits segments",
			src:  ".word 1\n.org 0x10\na: .byte 2\n.org 0x20\n.ascii \"\"\n.org 0x20\nt:",
			segs: []seg{{Addr: 0, Data: []byte{0, 0, 0, 1}}, {Addr: 0x10, Data: []byte{2}}, {Addr: 0x20, Data: nil}},
			syms: map[string]uint32{"a": 0x10, "t": 0x20},
			data: 5,
		},
		{
			name: "labels stack on one item",
			src:  "l1: l2: .word 3\nl3:",
			segs: []seg{{Addr: 0, Data: []byte{0, 0, 0, 3}}},
			syms: map[string]uint32{"l1": 0, "l2": 0, "l3": 4},
			data: 4,
		},
		{name: "empty source", src: "", syms: map[string]uint32{}},
		{
			name: "image may end exactly at the memory size",
			src:  ".org 0xffffc\nlast: .word 7\n.org 0x100000\nend:",
			segs: []seg{{Addr: 0xffffc, Data: []byte{0, 0, 0, 7}}},
			syms: map[string]uint32{"last": 0xffffc, "end": 0x100000},
			data: 4,
		},

		// Diagnostics of the shared core.
		{name: "duplicate label on items", src: "a: .word 1\na: .word 2", errLine: 2, err: `symbol "a" redefined`},
		{name: "label duplicates .equ", src: ".equ a, 1\na: .word 2", errLine: 2, err: `symbol "a" redefined`},
		{
			name: "duplicate trailing label", src: "q: .word 1\nq:",
			errs: map[string]string{"risc1": `asm: symbol "q" redefined`, "cisc": `vax: symbol "q" redefined`, "rv32": `rv32: symbol "q" redefined`},
		},
		{
			name: "duplicate label, both trailing", src: ".word 1\nq:\nq:",
			errs: map[string]string{"risc1": `asm: symbol "q" redefined`, "cisc": `vax: symbol "q" redefined`, "rv32": `rv32: symbol "q" redefined`},
		},
		{name: "backwards .org", src: ".org 0x100\n.org 0x80", errLine: 2, err: ".org 0x80 moves backwards from 0x100"},
		{name: "non-power-of-two .align", src: ".align 3", errLine: 1, err: ".align needs a power of two"},
		{name: "zero .align", src: ".align 0", errLine: 1, err: ".align needs a power of two"},
		{name: "negative .org", src: ".org -1", errLine: 1, err: ".org operand must be non-negative"},
		{name: "negative .space", src: ".space -4", errLine: 1, err: ".space operand must be non-negative"},
		{name: ".org forward reference", src: ".org q\nq:", errLine: 1, err: `.org operand must be computable here: line 1: undefined symbol "q"`},
		{name: ".equ without name", src: ".equ", errLine: 1, err: ".equ needs a name"},
		{name: ".equ without comma", src: ".equ K 3", errLine: 1, err: "expected ','"},
		{name: ".equ redefined", src: ".equ K, 1\n.equ K, 2", errLine: 2, err: `symbol "K" redefined`},
		{name: ".equ forward reference", src: ".equ K, u", errLine: 1, err: `.equ value must be computable here: line 1: undefined symbol "u"`},
		{name: ".word without comma", src: ".word 1 2", errLine: 1, err: "expected ','"},
		{name: ".ascii without string", src: ".ascii 5", errLine: 1, err: ".ascii needs a string"},
		{name: "trailing operand", src: ".space 4 5", errLine: 1, err: "unexpected trailing operands"},
		{name: "unknown directive", src: ".bogus 1", errLine: 1, err: `unknown directive ".bogus"`},
		{name: "line starts with a number", src: "5: nop", errLine: 1, err: `expected mnemonic or directive, got "5"`},
		{name: "undefined symbol in data", src: ".word u", errLine: 1, err: `line 1: undefined symbol "u"`},
		{name: "division by zero in data", src: "x: .word 1 / 0", errLine: 1, err: "line 1: division by zero in expression"},
		{
			name: "scanner and expression errors carry no prefix", src: ".word\n",
			errs: map[string]string{"risc1": "line 1: expected expression", "cisc": "line 1: expected expression", "rv32": "line 1: expected expression"},
		},
		{
			name: "unbalanced parenthesis", src: ".word (1",
			errs: map[string]string{"risc1": "line 1: missing )", "cisc": "line 1: missing )", "rv32": "line 1: missing )"},
		},

		// The location counter neither wraps nor passes the machine
		// memory, and directive operands must fit 32 bits.
		{name: "location counter past memory", src: ".org 0xfffffffc\nx: .word 1, 2\ny: .word 3", errLine: 1, err: "image ends at 0xfffffffc, past the 1048576-byte machine memory"},
		{name: "image one byte too large", src: ".org 0x100000\n.byte 1", errLine: 2, err: "image ends at 0x100001, past the 1048576-byte machine memory"},
		{name: "oversized .space", src: ".space 400000000", errLine: 1, err: "image ends at 0x17d78400, past the 1048576-byte machine memory"},
		{name: ".space past 32 bits", src: ".space 0x100000004", errLine: 1, err: ".space operand 0x100000004 does not fit in 32 bits"},
		{name: ".org past 32 bits", src: ".org 0x100000000", errLine: 1, err: ".org operand 0x100000000 does not fit in 32 bits"},
		{name: ".align past 32 bits", src: ".align 0x100000000", errLine: 1, err: ".align operand 0x100000000 does not fit in 32 bits"},

		// The entry rule: start, then main, then the first instruction.
		{
			name: "start before main", src: "main: .word 1\nstart: .word 2",
			segs: []seg{{Addr: 0, Data: []byte{0, 0, 0, 1, 0, 0, 0, 2}}},
			syms: map[string]uint32{"main": 0, "start": 4}, entry: 4, data: 8,
		},
		{
			name: "main", src: ".word 1\nmain: .word 2",
			segs: []seg{{Addr: 0, Data: []byte{0, 0, 0, 1, 0, 0, 0, 2}}},
			syms: map[string]uint32{"main": 4}, entry: 4, data: 8,
		},
		{
			name: "risc1 first instruction is word-aligned", only: "risc1", src: ".byte 1\nnop\nnop",
			segs: []seg{{Addr: 0, Data: []byte{1}}, {Addr: 4, Data: []byte{2, 0, 0, 0, 2, 0, 0, 0}}},
			syms: map[string]uint32{}, entry: 4, text: 8, data: 1,
		},
		{
			name: "rv32 first instruction is word-aligned", only: "rv32", src: ".byte 1\nnop\nnop",
			segs: []seg{{Addr: 0, Data: []byte{1}}, {Addr: 4, Data: []byte{0, 0, 0, 0x13, 0, 0, 0, 0x13}}},
			syms: map[string]uint32{}, entry: 4, text: 8, data: 1,
		},
		{
			name: "vax instructions are byte-aligned", only: "cisc", src: ".byte 1\nnop\nnop",
			segs: []seg{{Addr: 0, Data: []byte{1, 2, 2}}},
			syms: map[string]uint32{}, entry: 1, text: 2, data: 1,
		},
		{
			name: "vax entry skips a leading .entry mask", only: "cisc", src: ".byte 1\n.entry r2, r3\nf: nop",
			segs: []seg{{Addr: 0, Data: []byte{1}}, {Addr: 2, Data: []byte{0, 0x0c, 2}}},
			syms: map[string]uint32{"f": 4}, entry: 4, text: 3, data: 1,
		},
		{
			name: "rv32 li is one or two words", only: "rv32", src: "li a0, 5\nli a1, 0x12345\nx: nop",
			segs: []seg{{Addr: 0, Data: []byte{0, 0x50, 0x05, 0x13, 0, 0x01, 0x25, 0xb7, 0x34, 0x55, 0x85, 0x93, 0, 0, 0, 0x13}}},
			syms: map[string]uint32{"x": 12}, entry: 0, text: 16,
		},

		// Each backend's own diagnostics keep their format.
		{name: "risc1 immediate range", only: "risc1", src: "add r1, r2, 5000", errLine: 1, err: "immediate 5000 does not fit in 13 bits"},
		{name: "risc1 undefined branch target", only: "risc1", src: "nop\nbeq x", errLine: 2, err: `line 2: undefined symbol "x"`},
		{name: "vax .entry register", only: "cisc", src: ".entry r12", errLine: 1, err: `.entry may only save r0..r11, got "r12"`},
		{name: "vax missing operand", only: "cisc", src: "movl", errLine: 1, err: "missing operand"},
		{name: "rv32 memory operand", only: "rv32", src: "lw a0, 4", errLine: 1, err: "expected '(reg)' in memory operand"},
		{name: "rv32 .entry is unknown", only: "rv32", src: ".entry r2", errLine: 1, err: `unknown directive ".entry"`},
		{name: "risc1 .entry is unknown", only: "risc1", src: ".entry r2", errLine: 1, err: `unknown directive ".entry"`},
	}
	for _, tc := range cases {
		for _, b := range backends {
			if tc.only != "" && tc.only != b.name {
				continue
			}
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				p, err := b.assemble(tc.src)
				want := tc.errs[b.name]
				if tc.err != "" {
					want = b.diag(tc.errLine, tc.err)
				}
				if want != "" {
					if err == nil || err.Error() != want {
						t.Fatalf("error = %v, want %q", err, want)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.segs, tc.segs) {
					t.Errorf("segments = %x, want %x", p.segs, tc.segs)
				}
				if !reflect.DeepEqual(p.syms, tc.syms) {
					t.Errorf("symbols = %v, want %v", p.syms, tc.syms)
				}
				if p.entry != tc.entry || p.text != tc.text || p.data != tc.data {
					t.Errorf("entry/text/data = %#x/%d/%d, want %#x/%d/%d",
						p.entry, p.text, p.data, tc.entry, tc.text, tc.data)
				}
			})
		}
	}
}

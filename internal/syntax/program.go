package syntax

import (
	"fmt"
	"sort"

	"risc1/internal/mem"
)

// Segment is a contiguous block of assembled bytes.
type Segment struct {
	Addr uint32
	Data []byte
}

// Program is the output of a two-pass assembler: the loadable image and
// its symbol table. Each instruction set's assembler embeds it in its own
// Program type.
type Program struct {
	Segments []Segment
	Symbols  map[string]uint32
	// Entry is the address of "start" if defined, else of "main", else
	// of the first executable instruction, else 0.
	Entry    uint32
	TextSize int // bytes of instructions (static code size for the tables)
	DataSize int // bytes of data directives

	name string // the assembler's diagnostic prefix
}

// LoadInto copies all segments into memory.
func (p *Program) LoadInto(m *mem.Memory) error {
	for _, s := range p.Segments {
		if err := m.WriteBytes(s.Addr, s.Data); err != nil {
			return fmt.Errorf("%s: loading segment at %#08x: %w", p.name, s.Addr, err)
		}
	}
	return nil
}

// Symbol looks up a label or .equ value.
func (p *Program) Symbol(name string) (uint32, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// SortedSymbols returns symbol names in address order, for listings.
func (p *Program) SortedSymbols() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

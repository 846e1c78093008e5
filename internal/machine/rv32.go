package machine

import (
	"risc1/internal/cc"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/rv32"
)

// rv32Machine adapts *rv32.CPU — the modern delay-slot-free RISC with a
// flat register file, the third point in the design-space comparison.
type rv32Machine struct{ *rv32.CPU }

func (m rv32Machine) unwrap() any             { return m.CPU }
func (m rv32Machine) Mem() *mem.Memory        { return m.CPU.Mem }
func (m rv32Machine) Instructions() uint64    { return m.CPU.Trace.Instructions }
func (m rv32Machine) Cycles() uint64          { return m.CPU.Trace.Cycles }
func (m rv32Machine) Observe(o *obs.Observer) { m.CPU.Obs = o }

func (m rv32Machine) Registers() []uint32 {
	regs := make([]uint32, len(m.CPU.R))
	copy(regs, m.CPU.R[:])
	return regs
}

func (m rv32Machine) Snapshot() Snapshot { return rv32Snapshot{m.CPU.Snapshot()} }
func (m rv32Machine) Restore(s Snapshot) { m.CPU.Restore(s.(rv32Snapshot).s) }

type rv32Snapshot struct{ s *rv32.Snapshot }

func (s rv32Snapshot) unwrap() any          { return s.s }
func (s rv32Snapshot) MemPages() int        { return s.s.MemPages() }
func (s rv32Snapshot) Instructions() uint64 { return s.s.Instructions() }
func (s rv32Snapshot) Release()             { s.s.Release() }

// rv32Program adapts *rv32.Program.
type rv32Program struct{ p *rv32.Program }

func (p rv32Program) unwrap() any                    { return p.p }
func (p rv32Program) LoadInto(m *mem.Memory) error   { return p.p.LoadInto(m) }
func (p rv32Program) Symbol(n string) (uint32, bool) { return p.p.Symbol(n) }
func (p rv32Program) SortedSymbols() []string        { return p.p.SortedSymbols() }
func (p rv32Program) Entry() uint32                  { return p.p.Entry }
func (p rv32Program) TextBytes() int                 { return p.p.TextSize }
func (p rv32Program) Footprint() int64 {
	n := int64(512)
	for _, seg := range p.p.Segments {
		n += int64(len(seg.Data))
	}
	return n + int64(len(p.p.Symbols))*32
}

func rv32Config(o Options) rv32.Config {
	return rv32.Config{MemSize: o.MemSize, MaxInstructions: o.Fuel}
}

func init() {
	Register(&Backend{
		Name:        "rv32",
		Aliases:     []string{"riscv"},
		Description: "RV32I-subset RISC: delay-slot-free, flat register file, M-extension mul/div",
		CycleNS:     rv32.CycleNS,
		Compile: func(src string, o Options) (Program, string, []obs.PassStat, error) {
			prog, text, stats, err := cc.CompileRV32(src, cc.Options{Opt: o.Opt})
			if err != nil {
				return nil, text, nil, err
			}
			return rv32Program{prog}, text, passStats(stats), nil
		},
		New: func(o Options) Machine { return rv32Machine{rv32.New(rv32Config(o))} },
		Normalize: func(o Options) Options {
			o.DelaySlots = false
			o.Windows = 0
			o.NoWindows = false
			o.NoICache = false
			return o
		},
	})
}

package machine

import (
	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cpu"
	"risc1/internal/mem"
	"risc1/internal/obs"
)

// riscMachine adapts *cpu.CPU — the paper's register-window RISC I —
// to the Machine interface. Embedding promotes the CPU's own methods,
// the fuel driver's run methods among them.
type riscMachine struct{ *cpu.CPU }

func (m riscMachine) unwrap() any             { return m.CPU }
func (m riscMachine) Mem() *mem.Memory        { return m.CPU.Mem }
func (m riscMachine) Instructions() uint64    { return m.CPU.Trace.Instructions }
func (m riscMachine) Cycles() uint64          { return m.CPU.Trace.Cycles }
func (m riscMachine) Observe(o *obs.Observer) { m.CPU.Obs = o }

// Registers returns the active window's 32 visible registers.
func (m riscMachine) Registers() []uint32 {
	regs := make([]uint32, 32)
	for r := range regs {
		regs[r] = m.CPU.Regs.Get(uint8(r))
	}
	return regs
}

func (m riscMachine) Snapshot() Snapshot { return riscSnapshot{m.CPU.Snapshot()} }
func (m riscMachine) Restore(s Snapshot) { m.CPU.Restore(s.(riscSnapshot).s) }

type riscSnapshot struct{ s *cpu.Snapshot }

func (s riscSnapshot) unwrap() any          { return s.s }
func (s riscSnapshot) MemPages() int        { return s.s.MemPages() }
func (s riscSnapshot) Instructions() uint64 { return s.s.Instructions() }
func (s riscSnapshot) Release()             { s.s.Release() }

// riscProgram adapts *asm.Program.
type riscProgram struct{ p *asm.Program }

func (p riscProgram) unwrap() any                    { return p.p }
func (p riscProgram) LoadInto(m *mem.Memory) error   { return p.p.LoadInto(m) }
func (p riscProgram) Symbol(n string) (uint32, bool) { return p.p.Symbol(n) }
func (p riscProgram) SortedSymbols() []string        { return p.p.SortedSymbols() }
func (p riscProgram) Entry() uint32                  { return p.p.Entry }
func (p riscProgram) TextBytes() int                 { return p.p.TextSize }
func (p riscProgram) Footprint() int64 {
	n := int64(512)
	for _, seg := range p.p.Segments {
		n += int64(len(seg.Data))
	}
	return n + int64(len(p.p.Symbols))*32
}

func riscConfig(o Options) cpu.Config {
	return cpu.Config{
		Windows:         o.Windows,
		NoWindows:       o.NoWindows,
		NoICache:        o.NoICache,
		MemSize:         o.MemSize,
		MaxInstructions: o.Fuel,
	}
}

func init() {
	Register(&Backend{
		Name:        "risc1",
		Aliases:     []string{"risc"},
		Description: "RISC I: the paper's register-window RISC (delayed jumps, 8 windows)",
		CycleNS:     cpu.DefaultCycleNS,
		Compile: func(src string, o Options) (Program, string, []obs.PassStat, error) {
			prog, text, stats, err := cc.CompileRISC(src, cc.Options{Opt: o.Opt, DelaySlots: o.DelaySlots})
			if err != nil {
				return nil, text, nil, err
			}
			return riscProgram{prog}, text, passStats(stats), nil
		},
		New: func(o Options) Machine { return riscMachine{cpu.New(riscConfig(o))} },
		// Every Options field is meaningful on RISC I.
		Normalize: func(o Options) Options { return o },
		// The predecoded-icache counters are host machinery: they
		// depend on pool history and the NoICache escape hatch while
		// every simulated number is identical.
		Scrub: func(rep *obs.Report) { rep.ICache = nil },
	})
}

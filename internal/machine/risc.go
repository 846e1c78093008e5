package machine

import (
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
func (m riscMachine) Fork() Machine      { return riscMachine{m.CPU.Fork()} }

type riscSnapshot struct{ s *cpu.Snapshot }

func (s riscSnapshot) unwrap() any          { return s.s }
func (s riscSnapshot) MemPages() int        { return s.s.MemPages() }
func (s riscSnapshot) Instructions() uint64 { return s.s.Instructions() }
func (s riscSnapshot) Release()             { s.s.Release() }

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
			return program{&prog.Program, prog}, text, passStats(stats), nil
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

package machine

import (
	"risc1/internal/cc"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/vax"
)

// ciscMachine adapts *vax.CPU — the VAX-style CISC baseline.
type ciscMachine struct{ *vax.CPU }

func (m ciscMachine) unwrap() any             { return m.CPU }
func (m ciscMachine) Mem() *mem.Memory        { return m.CPU.Mem }
func (m ciscMachine) Instructions() uint64    { return m.CPU.Trace.Instructions }
func (m ciscMachine) Cycles() uint64          { return m.CPU.Trace.Cycles }
func (m ciscMachine) Observe(o *obs.Observer) { m.CPU.Obs = o }

func (m ciscMachine) Registers() []uint32 {
	regs := make([]uint32, len(m.CPU.R))
	copy(regs, m.CPU.R[:])
	return regs
}

func (m ciscMachine) Snapshot() Snapshot { return ciscSnapshot{m.CPU.Snapshot()} }
func (m ciscMachine) Restore(s Snapshot) { m.CPU.Restore(s.(ciscSnapshot).s) }

type ciscSnapshot struct{ s *vax.Snapshot }

func (s ciscSnapshot) unwrap() any          { return s.s }
func (s ciscSnapshot) MemPages() int        { return s.s.MemPages() }
func (s ciscSnapshot) Instructions() uint64 { return s.s.Instructions() }
func (s ciscSnapshot) Release()             { s.s.Release() }

func ciscConfig(o Options) vax.Config {
	return vax.Config{MemSize: o.MemSize, MaxInstructions: o.Fuel}
}

func init() {
	Register(&Backend{
		Name:        "cisc",
		Aliases:     []string{"vax"},
		Description: "CISC baseline: VAX-style two-address machine with microcoded CALLS/RET",
		CycleNS:     vax.CycleNS,
		Compile: func(src string, o Options) (Program, string, []obs.PassStat, error) {
			prog, text, stats, err := cc.CompileVAX(src, cc.Options{Opt: o.Opt})
			if err != nil {
				return nil, text, nil, err
			}
			return program{&prog.Program, prog}, text, passStats(stats), nil
		},
		New: func(o Options) Machine { return ciscMachine{vax.New(ciscConfig(o))} },
		Normalize: func(o Options) Options {
			o.DelaySlots = false
			o.Windows = 0
			o.NoWindows = false
			o.NoICache = false
			return o
		},
	})
}

package cpu

import (
	"risc1/internal/isa"
	"risc1/internal/obs"
)

// BuildReport assembles the versioned machine-readable run report for
// the machine's current statistics. The caller attaches the profiler
// section separately (obs.ProfileSection) since symbol naming lives with
// the program, not the CPU.
func (c *CPU) BuildReport(workload string) obs.Report {
	r := obs.Report{
		Schema:   obs.ReportSchema,
		Version:  obs.ReportVersion,
		Machine:  "risc1",
		Workload: workload,
		Config: obs.ReportConfig{
			Windows:   c.cfg.Windows,
			NoWindows: c.cfg.NoWindows,
			MemSize:   c.cfg.MemSize,
			CycleNS:   DefaultCycleNS,
		},
		Totals: obs.Totals{
			Instructions: c.Trace.Instructions,
			Cycles:       c.Trace.Cycles,
			BaseCycles:   c.Trace.Cycles - c.Stats.TrapCycles,
			TrapCycles:   c.Stats.TrapCycles,
			Micros:       c.Micros(),
		},
		Windows: &obs.Windows{
			Calls:       c.Regs.Stats.Calls,
			Returns:     c.Regs.Stats.Returns,
			Overflows:   c.Regs.Stats.Overflows,
			Underflows:  c.Regs.Stats.Underflows,
			MaxDepth:    c.Regs.MaxDepth(),
			SpillWords:  c.Stats.SpillWords,
			RefillWords: c.Stats.RefillWords,
			DepthHist:   c.Trace.DepthHistogram(),
		},
		Control: &obs.Control{
			JumpsTaken:    c.Stats.JumpsTaken,
			JumpsUntaken:  c.Stats.JumpsUntaken,
			DelaySlotNops: c.Stats.DelaySlotNops,
		},
		Memory: obs.Memory{
			Reads:        c.Mem.Stats.Reads,
			Writes:       c.Mem.Stats.Writes,
			BytesRead:    c.Mem.Stats.BytesRead,
			BytesWritten: c.Mem.Stats.BytesWritten,
			Accesses:     c.Mem.Stats.Accesses(),
		},
	}
	if c.Trace.Instructions > 0 {
		r.Totals.CPI = float64(c.Trace.Cycles) / float64(c.Trace.Instructions)
	}
	for _, s := range c.Trace.Mix() {
		r.Mix = append(r.Mix, obs.MixEntry{Name: s.Name, Count: s.Count, Frac: s.Frac})
	}
	for _, s := range c.Trace.OpCounts() {
		r.Ops = append(r.Ops, obs.MixEntry{Name: s.Name, Count: s.Count, Frac: s.Frac})
	}
	if c.icache != nil {
		s := c.icache.Stats()
		r.ICache = &obs.ICache{Hits: s.Hits, Misses: s.Misses, Fills: s.Fills, Invalidations: s.Invalidations}
	}
	return r
}

// Disassembler returns a pc → assembly-text resolver reading the CPU's
// current memory image — the disasm callback for annotated profiles.
func (c *CPU) Disassembler() func(pc uint32) (string, bool) {
	return func(pc uint32) (string, bool) {
		w, err := c.Mem.FetchWord(pc)
		if err != nil {
			return "", false
		}
		in, err := isa.Decode(w)
		if err != nil {
			return "", false
		}
		return in.String(), true
	}
}

package rv32

import (
	"fmt"

	"risc1/internal/mem"
	"risc1/internal/trace"
)

// Snapshot is an immutable machine image of the rv32 machine: memory
// shared copy-on-write (O(touched pages)), the flat register file, and
// all simulated statistics. The same capture rules as the other
// machines apply (DESIGN.md §12): observer state is not captured, the
// instruction budget is left to the run, and a snapshot may be restored
// into any same-sized machine, repeatedly, from any goroutine.
type Snapshot struct {
	cfg   Config
	mem   *mem.Snapshot
	regs  [NumRegs]uint32
	tr    *trace.Collector
	stats Stats

	pc      uint32
	depth   int
	halted  bool
	haltErr error
}

// MemPages reports how many memory pages the snapshot references.
func (s *Snapshot) MemPages() int { return s.mem.Pages() }

// Instructions returns the snapshotted instruction count.
func (s *Snapshot) Instructions() uint64 { return s.tr.Instructions }

// compatible ignores the instruction budget, which is per-run state,
// and the host-side icache switch.
func compatible(a, b Config) bool {
	a.MaxInstructions, b.MaxInstructions = 0, 0
	a.NoICache, b.NoICache = false, false
	return a == b
}

// Snapshot captures the machine's architectural state in O(touched
// memory pages).
func (c *CPU) Snapshot() *Snapshot {
	return &Snapshot{
		cfg:     c.cfg,
		mem:     c.Mem.Snapshot(),
		regs:    c.R,
		tr:      c.Trace.Clone(),
		stats:   c.Stats,
		pc:      c.pc,
		depth:   c.depth,
		halted:  c.halted,
		haltErr: c.haltErr,
	}
}

// Restore rewinds the machine to the snapshot in O(touched pages),
// keeping the Mem and Trace pointers stable and leaving the instruction
// budget as configured. It panics on an incompatible configuration.
func (c *CPU) Restore(s *Snapshot) {
	if !compatible(c.cfg, s.cfg) {
		panic(fmt.Sprintf("rv32: restore of a %+v snapshot into a %+v machine", s.cfg, c.cfg))
	}
	c.Mem.Restore(s.mem)
	c.R = s.regs
	c.Trace.CopyFrom(s.tr)
	c.Stats = s.stats
	c.pc = s.pc
	c.depth = s.depth
	c.halted = s.halted
	c.haltErr = s.haltErr
	c.obsPending = obsPendingNone
	c.obsTarget = 0
}

// Release returns the snapshot's memory pages to the page pool; the
// snapshot must not be restored afterwards. Optional, like the other
// machines'.
func (s *Snapshot) Release() { s.mem.Release() }

// Fork returns an independent copy of the machine with memory shared
// copy-on-write, registers and statistics copied, and the predecoded
// icache cloned with its own invalidation hook. Observers are not
// carried over. Parent and fork may then run concurrently.
func (c *CPU) Fork() *CPU {
	n := &CPU{
		cfg:       c.cfg,
		Mem:       c.Mem.Fork(),
		R:         c.R,
		Trace:     c.Trace.Clone(),
		Stats:     c.Stats,
		pc:        c.pc,
		depth:     c.depth,
		halted:    c.halted,
		haltErr:   c.haltErr,
		opHandles: c.opHandles,
	}
	n.Driver = c.Rebind(n, n.Trace)
	n.icache = c.icache.Clone(n.Mem)
	return n
}

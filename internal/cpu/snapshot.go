package cpu

import (
	"fmt"

	"risc1/internal/isa"
	"risc1/internal/mem"
	"risc1/internal/regfile"
	"risc1/internal/trace"
)

// Machine snapshots capture the complete architectural state of a RISC I
// simulator — memory (copy-on-write, O(touched pages)), the register
// file and window pointers, PC/NPC/flags/PSW bits, the save-stack
// pointer, interrupt state, and all simulated statistics — so a run can
// be rewound (time-travel debugging) or a compiled+initialized image can
// be re-entered per request without repeating the prelude (warm-start
// serving).
//
// What a snapshot does NOT capture, by design (DESIGN.md §12):
//
//   - the predecoded icache: host-side machinery; Restore invalidates it
//     through the memory's OnStore hook and it refills on demand.
//   - observer state (tracer ring, profiler counters) and the Tracer
//     callback: observation belongs to a run, not to the machine.
//   - the instruction budget (Config.MaxInstructions): fuel is re-armed
//     per run by the batch engine, so Restore leaves it alone.

// Snapshot is an immutable machine image. It may be restored into any
// CPU with a compatible configuration, any number of times, from any
// goroutine; concurrent restores share memory pages copy-on-write.
type Snapshot struct {
	cfg   Config
	mem   *mem.Snapshot
	regs  *regfile.File
	tr    *trace.Collector
	stats Stats

	pc, npc, lastPC uint32
	flags           isa.Flags
	saveSP          uint32
	inSlot          bool
	halted          bool
	haltErr         error
	intEnabled      bool
	pendingIRQ      *uint32
}

// MemPages reports how many memory pages the snapshot references — the
// unit of snapshot and restore cost.
func (s *Snapshot) MemPages() int { return s.mem.Pages() }

// Instructions returns the snapshotted instruction count, which the
// time-travel stepper uses to pick a rewind point.
func (s *Snapshot) Instructions() uint64 { return s.tr.Instructions }

// compatible reports whether two configurations describe the same
// simulated machine. The instruction budget and the host-side icache
// switch are excluded: neither changes architectural state.
func compatible(a, b Config) bool {
	a.MaxInstructions, b.MaxInstructions = 0, 0
	a.NoICache, b.NoICache = false, false
	return a == b
}

// Snapshot captures the machine's architectural state in O(touched
// memory pages). The CPU may keep running afterwards; the snapshot is
// unaffected.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		cfg:        c.cfg,
		mem:        c.Mem.Snapshot(),
		regs:       c.Regs.Clone(),
		tr:         c.Trace.Clone(),
		stats:      c.Stats,
		pc:         c.pc,
		npc:        c.npc,
		lastPC:     c.lastPC,
		flags:      c.flags,
		saveSP:     c.saveSP,
		inSlot:     c.inSlot,
		halted:     c.halted,
		haltErr:    c.haltErr,
		intEnabled: c.intEnabled,
	}
	if c.pendingIRQ != nil {
		v := *c.pendingIRQ
		s.pendingIRQ = &v
	}
	return s
}

// Restore rewinds the machine to the snapshot in O(touched pages). The
// Mem, Regs and Trace pointers stay stable (their contents are
// overwritten in place), the icache is invalidated through the OnStore
// hook, and the instruction budget is left as configured. It panics if
// the snapshot came from an incompatible configuration.
func (c *CPU) Restore(s *Snapshot) {
	if !compatible(c.cfg, s.cfg) {
		panic(fmt.Sprintf("cpu: restore of a %+v snapshot into a %+v machine", s.cfg, c.cfg))
	}
	c.Mem.Restore(s.mem) // fires OnStore per changed page run → icache drops exactly the stale decodes
	c.Regs.CopyFrom(s.regs)
	c.Trace.CopyFrom(s.tr)
	c.Stats = s.stats
	c.pc = s.pc
	c.npc = s.npc
	c.lastPC = s.lastPC
	c.flags = s.flags
	c.saveSP = s.saveSP
	c.inSlot = s.inSlot
	c.halted = s.halted
	c.haltErr = s.haltErr
	c.intEnabled = s.intEnabled
	c.pendingIRQ = nil
	if s.pendingIRQ != nil {
		v := *s.pendingIRQ
		c.pendingIRQ = &v
	}
}

// Release returns the snapshot's memory pages to the page pool.
// Optional — an unreleased snapshot is garbage-collected, just not
// recycled — and the snapshot must not be restored afterwards.
func (s *Snapshot) Release() { s.mem.Release() }

// Fork returns an independent copy of the machine: memory shared
// copy-on-write (O(touched pages)), register file, window state, PSW
// and statistics copied, and the predecoded icache cloned so the fork
// starts at full host speed. The fork gets its own invalidation hook;
// observers (Obs, Tracer) are not carried over — attach the fork's own
// if the new run should be observed. Parent and fork may then run
// concurrently.
func (c *CPU) Fork() *CPU {
	n := &CPU{
		cfg:        c.cfg,
		Mem:        c.Mem.Fork(),
		Regs:       c.Regs.Clone(),
		Trace:      c.Trace.Clone(),
		Stats:      c.Stats,
		pc:         c.pc,
		npc:        c.npc,
		lastPC:     c.lastPC,
		flags:      c.flags,
		saveSP:     c.saveSP,
		inSlot:     c.inSlot,
		halted:     c.halted,
		haltErr:    c.haltErr,
		intEnabled: c.intEnabled,
		opHandles:  c.opHandles,
	}
	n.Driver = c.Rebind(n, n.Trace)
	if c.pendingIRQ != nil {
		v := *c.pendingIRQ
		n.pendingIRQ = &v
	}
	n.icache = c.icache.Clone(n.Mem)
	return n
}

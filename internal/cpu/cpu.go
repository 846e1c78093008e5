// Package cpu simulates the RISC I processor at the architectural cycle
// level: fetch/decode/execute with delayed jumps, condition codes,
// register-window overflow/underflow traps with spill/refill to a memory
// save stack, and the cycle accounting used by the paper's evaluation
// (register-to-register instructions take one cycle, memory accesses two,
// because the single memory port is shared with instruction fetch).
package cpu

import (
	"fmt"

	"risc1/internal/fuel"
	"risc1/internal/isa"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/predecode"
	"risc1/internal/regfile"
	"risc1/internal/trace"
)

// HaltAddr is the simulator's halt sentinel: a RET whose target is this
// address stops the machine cleanly. The startup convention places
// HaltAddr-8 in r25 of the entry activation, so the usual epilogue
// "ret r25, 8" from the entry procedure halts.
const HaltAddr = 0xfffffff0

// DefaultCycleNS is the paper's estimated RISC I cycle time (400 ns),
// used only to convert cycle counts into microseconds for reports.
const DefaultCycleNS = 400

// Trap-handling overhead in cycles, added on top of the spill/refill
// memory traffic for a window overflow or underflow (pipeline drain,
// save-stack pointer update).
const trapOverheadCycles = 4

// Config selects the simulated machine's organization.
type Config struct {
	// Windows sets the register-file window count; zero means the
	// paper's default of eight.
	Windows int
	// MemSize is the main memory size in bytes; zero means 1 MiB.
	MemSize int
	// SaveStackTop is the initial register-save stack pointer (the stack
	// grows down); zero places it at the top of memory.
	SaveStackTop uint32
	// NoWindows simulates a conventional flat register file: only one
	// activation's registers are resident, so every call spills and
	// every return refills — the paper's point of comparison for what
	// procedure calls cost without windows. (Internally this is the
	// degenerate two-window configuration.)
	NoWindows bool
	// MaxInstructions is the initial instruction budget, aborting
	// runaway programs; zero means 2^32.
	MaxInstructions uint64
	// NoICache disables the predecoded instruction cache, forcing a
	// fetch+decode from memory on every instruction — the host-speed
	// escape hatch behind risc1-run's -nocache flag. Simulated cycles
	// and statistics are identical either way by construction.
	NoICache bool
}

func (c Config) withDefaults() Config {
	if c.NoWindows {
		c.Windows = 2
	}
	if c.Windows == 0 {
		c.Windows = regfile.DefaultConfig.Windows
	}
	if c.MemSize == 0 {
		c.MemSize = mem.DefaultSize
	}
	if c.SaveStackTop == 0 {
		c.SaveStackTop = uint32(c.MemSize)
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 1 << 32
	}
	return c
}

// Stats extends the generic collector with RISC-specific counters.
type Stats struct {
	TrapCycles    uint64 // cycles spent in overflow/underflow handling
	SpillWords    uint64 // words written to the save stack
	RefillWords   uint64 // words read from the save stack
	JumpsTaken    uint64
	JumpsUntaken  uint64
	DelaySlotNops uint64 // NOP-equivalent instructions executed in delay slots
}

// CPU is one RISC I processor with its memory. The embedded fuel
// driver supplies Run, RunContext, RunSteps and SetMaxInstructions.
type CPU struct {
	fuel.Driver
	cfg Config

	Mem   *mem.Memory
	Regs  *regfile.File
	Trace *trace.Collector
	Stats Stats

	// Tracer, when non-nil, receives every instruction just before it
	// executes — a lightweight hook for models that only need the
	// instruction stream (the pipeline viewer). Richer observation goes
	// through Obs.
	Tracer func(pc uint32, in isa.Inst)

	// Obs, when non-nil, receives structured execution events: every
	// instruction, call, return, window spill/refill, interrupt and
	// fault, feeding the tracer and the guest profiler. nil (the
	// default) keeps the hot loop observation-free; Reset does not
	// clear it. Attaching an observer never changes simulated state.
	Obs *obs.Observer

	pc     uint32 // address of the instruction being executed
	npc    uint32 // address of the next instruction (delayed-jump slot)
	lastPC uint32 // previous pc, for GTLPC
	flags  isa.Flags

	saveSP  uint32 // register-save stack pointer (grows down)
	inSlot  bool   // the current instruction occupies a delay slot
	halted  bool
	haltErr error

	intEnabled bool
	pendingIRQ *uint32 // vector address of a requested interrupt

	opHandles [64]int // trace handles indexed by opcode

	// icache is the predecoded instruction cache (nil with NoICache);
	// stores invalidate it through the Memory.OnStore hook.
	icache *predecode.Cache[decoded]
}

// decoded is one predecoded instruction: the architectural fields plus
// the metadata execute() would otherwise re-derive every visit (the
// per-opcode cycle cost and trace handle, resolved once).
type decoded struct {
	in     isa.Inst
	cycles uint64
	handle int
}

// ICacheStats counts predecoded-instruction-cache activity.
type ICacheStats = predecode.Stats

// New builds a CPU with zeroed memory and registers.
func New(cfg Config) *CPU {
	cfg = cfg.withDefaults()
	c := &CPU{
		cfg:   cfg,
		Mem:   mem.New(cfg.MemSize),
		Regs:  regfile.New(regfile.Config{Windows: cfg.Windows}),
		Trace: trace.New(),
	}
	for _, info := range isa.Instructions() {
		c.opHandles[info.Op] = c.Trace.Handle(info.Name, info.Class.String())
	}
	if !cfg.NoICache {
		c.icache = predecode.New[decoded](cfg.MemSize, 2, 0)
		c.icache.Attach(c.Mem)
	}
	c.Driver = fuel.New("cpu", c, c.Trace, cfg.MaxInstructions)
	c.resetState(0)
	return c
}

// ICacheStats reports instruction-cache activity (zero with NoICache).
// It describes the simulator's host-speed machinery, not the simulated
// machine: architectural cycle counts never depend on it.
func (c *CPU) ICacheStats() ICacheStats { return c.icache.Stats() }

// Config returns the configuration the CPU was built with (with defaults
// filled in).
func (c *CPU) Config() Config { return c.cfg }

// PC returns the address of the next instruction to execute.
func (c *CPU) PC() uint32 { return c.pc }

// Flags returns the current condition codes.
func (c *CPU) Flags() isa.Flags { return c.flags }

// Halted reports whether the machine has stopped, and why (nil for a
// clean halt through the halt sentinel).
func (c *CPU) Halted() (bool, error) { return c.halted, c.haltErr }

func (c *CPU) resetState(entry uint32) {
	c.pc = entry
	c.npc = entry + isa.InstBytes
	c.lastPC = entry
	c.flags = isa.Flags{}
	c.saveSP = c.cfg.SaveStackTop
	c.halted = false
	c.haltErr = nil
	c.inSlot = false
	c.intEnabled = true
	c.pendingIRQ = nil
	c.Stats = Stats{}
}

// Reset clears memory, registers and statistics, and arranges the halt
// convention: r25 of the entry window holds HaltAddr-8 so that the entry
// procedure's "ret r25, 8" stops the machine.
func (c *CPU) Reset(entry uint32) {
	c.Mem.Reset()
	c.Regs.Reset()
	c.Trace.Reset()
	c.resetState(entry)
	c.Regs.Set(25, HaltAddr-8)
}

// SetEntry rewinds execution to entry without clearing memory — used
// after loading a program image.
func (c *CPU) SetEntry(entry uint32) {
	c.Regs.Reset()
	c.Trace.Reset()
	c.resetState(entry)
	c.Regs.Set(25, HaltAddr-8)
}

// StepN executes up to n instructions, stopping early at a halt — the
// loop under the embedded fuel driver's Run, RunContext and RunSteps.
//
// A due interrupt is delivered first; its handler's first instruction
// is the step that delivery belongs to. The hit path then walks the
// predecoded span at pc straight-line: one cache lookup serves every
// instruction up to the first taken transfer (a delay slot is still
// sequential), invalid entry, page end, halt, deliverable interrupt,
// or the n-th instruction. A miss takes the slow path, miss.
func (c *CPU) StepN(n uint64) {
	for n > 0 && !c.halted {
		if c.irqDue() {
			if c.deliverInterrupt(); c.halted {
				return
			}
		}
		span := c.icache.Span(c.pc)
		if span == nil {
			c.miss()
			n--
			continue
		}
		if uint64(len(span)) > n {
			span = span[:n]
		}
		k, next := 0, c.pc
		for k < len(span) {
			e := &span[k]
			if !e.Valid {
				break
			}
			// Copy before executing: a store by this instruction into
			// its own word clears e in place.
			d := e.D
			c.execute(&d)
			k++
			next += isa.InstBytes
			if c.pc != next || c.halted || c.irqDue() {
				break
			}
		}
		c.icache.AddHits(uint64(k))
		n -= uint64(k)
	}
}

// Step executes a single instruction. After a halt it does nothing.
func (c *CPU) Step() { c.StepN(1) }

// RaiseInterrupt requests an external interrupt. Before the next
// instruction outside a delayed-jump shadow, the processor performs the
// hardware CALLINT sequence: advance the register window, save the
// interrupted PC in r25 of the new window, disable interrupts, and
// vector. The handler returns with "retint r25, 0".
func (c *CPU) RaiseInterrupt(vector uint32) {
	v := vector
	c.pendingIRQ = &v
}

// InterruptsEnabled reports the interrupt-enable state (cleared by
// interrupt entry and CALLINT, set by RETINT).
func (c *CPU) InterruptsEnabled() bool { return c.intEnabled }

// deliverInterrupt performs the trap entry. Delivery is deferred while
// the next instruction sits in a delayed-jump shadow: interrupting
// between a transfer and its slot would lose the in-flight target (the
// restartability problem GTLPC exists for); waiting one instruction
// sidesteps it.
func (c *CPU) deliverInterrupt() {
	vector := *c.pendingIRQ
	c.pendingIRQ = nil
	c.intEnabled = false
	if spilled := c.Regs.Call(); spilled != nil {
		if !c.spill(spilled) {
			return
		}
	}
	c.Trace.Depth(c.Regs.Depth())
	if c.Obs != nil {
		c.observeCall(obs.KindInterrupt, c.pc, vector)
		if c.Obs.Prof != nil {
			c.Obs.Prof.Overhead(vector, trapOverheadCycles)
		}
	}
	c.Regs.Set(25, c.pc) // resume address
	c.lastPC = c.pc
	c.pc = vector
	c.npc = vector + isa.InstBytes
	c.Trace.AddCycles(trapOverheadCycles)
	c.Stats.TrapCycles += trapOverheadCycles
}

// irqDue reports whether a requested interrupt is delivered before the
// next instruction.
func (c *CPU) irqDue() bool {
	return c.pendingIRQ != nil && c.intEnabled && !c.inSlot
}

// miss is StepN's slow path for one instruction the cache cannot
// serve (cold line, cleared entry, misaligned or out-of-range pc, or
// no cache): fetch and decode, raising exactly the faults it always
// did, refill the entry on success, and execute.
func (c *CPU) miss() {
	c.icache.CountMiss()
	word, err := c.Mem.FetchWord(c.pc)
	if err != nil {
		c.fault(fmt.Errorf("cpu: fetch at %#08x: %w", c.pc, err))
		return
	}
	in, err := isa.Decode(word)
	if err != nil {
		c.fault(fmt.Errorf("cpu: at %#08x: %w", c.pc, err))
		return
	}
	d := decoded{in: in, cycles: uint64(in.Op.Info().Cycles), handle: c.opHandles[in.Op]}
	if c.icache != nil { // keeps the -nocache path free of the out-of-line call
		c.icache.Fill(c.pc, d)
	}
	c.execute(&d)
}

func (c *CPU) fault(err error) {
	c.halted = true
	c.haltErr = err
	if o := c.Obs; o != nil && o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: obs.KindFault, PC: c.pc, Cycle: c.Trace.Cycles, Text: err.Error()})
	}
}

// observeInstr feeds the observer one about-to-execute instruction. It
// lives out of line so the instruments-off hot path in execute stays a
// single predictable branch.
func (c *CPU) observeInstr(in isa.Inst, cost uint64) {
	o := c.Obs
	if o.Prof != nil {
		o.Prof.Sample(c.pc, cost)
	}
	if o.Tracer != nil {
		ev := obs.Event{
			Kind:  obs.KindInstr,
			PC:    c.pc,
			Cycle: c.Trace.Cycles,
			Cost:  cost,
			Op:    in.Op.String(),
			Text:  in.String(),
			Slot:  c.inSlot,
		}
		// Jump outcomes are known before execution: Eval is pure.
		if in.Op == isa.JMP || in.Op == isa.JMPR {
			ev.Taken = in.Cond().Eval(c.flags)
		}
		o.Tracer.Emit(ev)
	}
}

// observeCall reports a window-advancing transfer (CALL/CALLR/CALLINT
// or interrupt delivery) after the window has moved.
func (c *CPU) observeCall(kind obs.Kind, fromPC, target uint32) {
	o := c.Obs
	if o.Prof != nil {
		o.Prof.EnterCall(target)
	}
	if o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: kind, PC: fromPC, Cycle: c.Trace.Cycles, Target: target, Depth: c.Regs.Depth()})
	}
}

// observeReturn reports a window-retreating transfer after the window
// has moved back.
func (c *CPU) observeReturn(target uint32) {
	o := c.Obs
	if o.Prof != nil {
		o.Prof.LeaveCall()
	}
	if o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: obs.KindReturn, PC: c.pc, Cycle: c.Trace.Cycles, Target: target, Depth: c.Regs.Depth()})
	}
}

// observeWindowTrap reports a spill or refill before its cycles land in
// the collector, charging the trap overhead to the current PC.
func (c *CPU) observeWindowTrap(kind obs.Kind, words int, cost uint64) {
	o := c.Obs
	if o.Prof != nil {
		o.Prof.Overhead(c.pc, cost)
	}
	if o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: kind, PC: c.pc, Cycle: c.Trace.Cycles, Words: words, Cost: cost})
	}
}

// s2 evaluates the short-format second operand.
func (c *CPU) s2(in *isa.Inst) uint32 {
	if in.Imm {
		return uint32(in.Imm13)
	}
	return c.Regs.Get(in.Rs2)
}

func (c *CPU) setFlagsLogic(res uint32) {
	c.flags = isa.Flags{Z: res == 0, N: int32(res) < 0}
}

// setFlagsAdd sets the condition codes for the three-input addition
// a + b + carry = res. Carry-out must be computed from the unwrapped
// three-input sum: folding the carry into b first corrupts C whenever
// b+carry wraps (b = 0xffffffff with carry-in 1), which silently breaks
// multi-word arithmetic chains.
func (c *CPU) setFlagsAdd(a, b, carry, res uint32) {
	c.flags = isa.Flags{
		Z: res == 0,
		N: int32(res) < 0,
		C: uint64(a)+uint64(b)+uint64(carry) > 0xffffffff,
		V: ^(a^b)&(a^res)&0x80000000 != 0,
	}
}

// setFlagsSub sets the condition codes for a - b - borrow = res.
// C means "no borrow", the convention CondLO/CondHIS assume; like the
// add case it is computed from the three unwrapped inputs.
func (c *CPU) setFlagsSub(a, b, borrow, res uint32) {
	c.flags = isa.Flags{
		Z: res == 0,
		N: int32(res) < 0,
		C: uint64(a) >= uint64(b)+uint64(borrow),
		V: (a^b)&(a^res)&0x80000000 != 0,
	}
}

// advance moves sequentially: the executed instruction was at pc; the
// next one is at npc.
func (c *CPU) advance() {
	c.lastPC = c.pc
	c.pc = c.npc
	c.npc = c.pc + isa.InstBytes
	c.inSlot = false
}

// transfer schedules a delayed control transfer: the instruction at npc
// (the delay slot) executes first, then control reaches target.
func (c *CPU) transfer(target uint32) {
	c.lastPC = c.pc
	c.pc = c.npc
	c.npc = target
	c.inSlot = true
}

// execute runs one decoded instruction, with the per-opcode metadata
// (isa cycle cost, trace handle) resolved once at decode time, so the
// interpreter never re-derives it per visit. d must be the caller's
// own copy, never a cache entry: a store can clear an entry in place.
func (c *CPU) execute(d *decoded) {
	in := &d.in
	if c.Tracer != nil {
		c.Tracer(c.pc, *in)
	}
	if c.Obs != nil {
		c.observeInstr(*in, d.cycles)
	}
	c.Trace.ExecHandle(d.handle, d.cycles)

	// A NOP in the shadow of a transfer is a wasted delay slot; the
	// canonical NOP is "add r0, r0, 0" (any write to r0 is a no-op).
	if c.inSlot && in.Op == isa.ADD && in.Rd == 0 && !in.SCC {
		c.Stats.DelaySlotNops++
	}

	switch in.Op {
	case isa.ADD, isa.ADDC:
		a, b := c.Regs.Get(in.Rs1), c.s2(in)
		carry := uint32(0)
		if in.Op == isa.ADDC && c.flags.C {
			carry = 1
		}
		res := a + b + carry
		c.Regs.Set(in.Rd, res)
		if in.SCC {
			c.setFlagsAdd(a, b, carry, res)
		}
		c.advance()

	case isa.SUB, isa.SUBC, isa.SUBR, isa.SUBCR:
		a, b := c.Regs.Get(in.Rs1), c.s2(in)
		if in.Op == isa.SUBR || in.Op == isa.SUBCR {
			a, b = b, a
		}
		borrow := uint32(0)
		if (in.Op == isa.SUBC || in.Op == isa.SUBCR) && !c.flags.C {
			borrow = 1
		}
		res := a - b - borrow
		c.Regs.Set(in.Rd, res)
		if in.SCC {
			c.setFlagsSub(a, b, borrow, res)
		}
		c.advance()

	case isa.AND, isa.OR, isa.XOR:
		a, b := c.Regs.Get(in.Rs1), c.s2(in)
		var res uint32
		switch in.Op {
		case isa.AND:
			res = a & b
		case isa.OR:
			res = a | b
		default:
			res = a ^ b
		}
		c.Regs.Set(in.Rd, res)
		if in.SCC {
			c.setFlagsLogic(res)
		}
		c.advance()

	case isa.SLL, isa.SRL, isa.SRA:
		a := c.Regs.Get(in.Rs1)
		sh := c.s2(in) & 31
		var res uint32
		switch in.Op {
		case isa.SLL:
			res = a << sh
		case isa.SRL:
			res = a >> sh
		default:
			res = uint32(int32(a) >> sh)
		}
		c.Regs.Set(in.Rd, res)
		if in.SCC {
			c.setFlagsLogic(res)
		}
		c.advance()

	case isa.LDL, isa.LDSU, isa.LDSS, isa.LDBU, isa.LDBS:
		addr := c.Regs.Get(in.Rs1) + c.s2(in)
		var v uint32
		var err error
		switch in.Op {
		case isa.LDL:
			v, err = c.Mem.LoadWord(addr)
		case isa.LDSU:
			v, err = c.Mem.LoadHalf(addr)
		case isa.LDSS:
			v, err = c.Mem.LoadHalf(addr)
			v = uint32(int32(v<<16) >> 16)
		case isa.LDBU:
			v, err = c.Mem.LoadByte(addr)
		default: // LDBS
			v, err = c.Mem.LoadByte(addr)
			v = uint32(int32(v<<24) >> 24)
		}
		if err != nil {
			c.fault(fmt.Errorf("cpu: at %#08x: %w", c.pc, err))
			return
		}
		c.Regs.Set(in.Rd, v)
		if in.SCC {
			c.setFlagsLogic(v)
		}
		c.advance()

	case isa.STL, isa.STS, isa.STB:
		addr := c.Regs.Get(in.Rs1) + c.s2(in)
		v := c.Regs.Get(in.Rd)
		var err error
		switch in.Op {
		case isa.STL:
			err = c.Mem.StoreWord(addr, v)
		case isa.STS:
			err = c.Mem.StoreHalf(addr, v)
		default:
			err = c.Mem.StoreByte(addr, v)
		}
		if err != nil {
			c.fault(fmt.Errorf("cpu: at %#08x: %w", c.pc, err))
			return
		}
		c.advance()

	case isa.JMP, isa.JMPR:
		var target uint32
		if in.Op == isa.JMP {
			target = c.Regs.Get(in.Rs1) + c.s2(in)
		} else {
			target = c.pc + uint32(in.Imm19)
		}
		if in.Cond().Eval(c.flags) {
			c.Stats.JumpsTaken++
			c.transfer(target)
		} else {
			c.Stats.JumpsUntaken++
			c.advance()
		}

	case isa.CALL, isa.CALLR, isa.CALLINT:
		if in.Op == isa.CALLINT {
			c.intEnabled = false
		}
		var target uint32
		if in.Op == isa.CALL {
			target = c.Regs.Get(in.Rs1) + c.s2(in)
		} else if in.Op == isa.CALLR {
			target = c.pc + uint32(in.Imm19)
		} else {
			target = c.Regs.Get(in.Rs1) + c.s2(in)
		}
		callPC := c.pc
		if spilled := c.Regs.Call(); spilled != nil {
			if !c.spill(spilled) {
				return
			}
		}
		c.Trace.Depth(c.Regs.Depth())
		if c.Obs != nil {
			c.observeCall(obs.KindCall, callPC, target)
		}
		// The return address lands in the NEW window, so the callee
		// (and RET) can find it; r25 is the software convention.
		c.Regs.Set(in.Rd, callPC)
		c.transfer(target)

	case isa.RET, isa.RETINT:
		if in.Op == isa.RETINT {
			c.intEnabled = true
		}
		target := c.Regs.Get(in.Rd) + c.s2(in)
		if target == HaltAddr {
			// Simulator halt convention: do not retreat the window.
			c.halted = true
			return
		}
		if c.Regs.Return() {
			if !c.refill() {
				return
			}
		}
		if c.Obs != nil {
			c.observeReturn(target)
		}
		c.transfer(target)

	case isa.LDHI:
		c.Regs.Set(in.Rd, uint32(in.Imm19)<<13)
		if in.SCC {
			c.setFlagsLogic(uint32(in.Imm19) << 13)
		}
		c.advance()

	case isa.GTLPC:
		c.Regs.Set(in.Rd, c.lastPC)
		c.advance()

	case isa.GETPSW:
		c.Regs.Set(in.Rd, c.psw())
		c.advance()

	case isa.PUTPSW:
		if !c.setPSW(c.Regs.Get(in.Rs1) + c.s2(in)) {
			return
		}
		c.advance()

	default:
		c.fault(fmt.Errorf("cpu: at %#08x: unimplemented opcode %v", c.pc, in.Op))
	}
}

// spill writes an evicted window to the save stack. It returns false and
// faults the machine on a memory error or when the save stack would run
// past address zero — decrementing the save pointer below zero would
// wrap uint32 and silently overwrite top-of-memory data.
func (c *CPU) spill(vals []uint32) bool {
	need := uint32(4 * len(vals))
	if c.saveSP < need {
		c.fault(fmt.Errorf("cpu: register-save stack overflow: save pointer %#08x cannot hold %d more words", c.saveSP, len(vals)))
		return false
	}
	c.saveSP -= need
	for i, v := range vals {
		if err := c.Mem.StoreWord(c.saveSP+uint32(4*i), v); err != nil {
			c.fault(fmt.Errorf("cpu: window overflow spill: %w", err))
			return false
		}
	}
	cost := uint64(2*len(vals) + trapOverheadCycles)
	if c.Obs != nil {
		c.observeWindowTrap(obs.KindSpill, len(vals), cost)
	}
	c.Stats.TrapCycles += cost
	c.Stats.SpillWords += uint64(len(vals))
	c.Trace.AddCycles(cost)
	return true
}

// refill restores the youngest spilled window from the save stack.
func (c *CPU) refill() bool {
	var vals [regfile.SpillRegs]uint32
	for i := range vals {
		v, err := c.Mem.LoadWord(c.saveSP + uint32(4*i))
		if err != nil {
			c.fault(fmt.Errorf("cpu: window underflow refill: %w", err))
			return false
		}
		vals[i] = v
	}
	c.saveSP += uint32(4 * len(vals))
	c.Regs.Refill(vals[:])
	cost := uint64(2*len(vals) + trapOverheadCycles)
	if c.Obs != nil {
		c.observeWindowTrap(obs.KindRefill, len(vals), cost)
	}
	c.Stats.TrapCycles += cost
	c.Stats.RefillWords += uint64(len(vals))
	c.Trace.AddCycles(cost)
	return true
}

// psw packs the processor status word; the layout (flags, interrupt
// enable, read-only CWP in bits 8..12) is defined by the isa.PSW*
// constants.
func (c *CPU) psw() uint32 {
	w := c.flags.PSW()
	if c.intEnabled {
		w |= isa.PSWIntEnable
	}
	w |= uint32(c.Regs.CWP()) << isa.PSWCWPShift
	return w
}

// setPSW installs the writable PSW fields (flags, interrupt enable).
// The CWP field is read-only: only CALL/RET/CALLINT/RETINT move the
// window pointer. A GETPSW/PUTPSW round trip in the same window writes
// the current CWP back and succeeds; writing a *different* CWP would
// previously be discarded silently (a lossy round trip with no
// diagnostic), so it now faults. Returns false after faulting.
func (c *CPU) setPSW(w uint32) bool {
	if got := isa.PSWCWP(w); got != c.Regs.CWP() {
		c.fault(fmt.Errorf("cpu: at %#08x: putpsw: CWP field is read-only (wrote %d, current window %d)", c.pc, got, c.Regs.CWP()))
		return false
	}
	c.flags = isa.FlagsFromPSW(w)
	c.intEnabled = w&isa.PSWIntEnable != 0
	return true
}

// Micros converts the accumulated cycle count to microseconds at the
// paper's nominal 400 ns cycle time.
func (c *CPU) Micros() float64 {
	return float64(c.Trace.Cycles) * DefaultCycleNS / 1000
}

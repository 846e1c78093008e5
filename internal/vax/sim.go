package vax

import (
	"fmt"
	"math/bits"

	"risc1/internal/fuel"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/predecode"
	"risc1/internal/trace"
)

// Config selects the baseline machine's parameters.
type Config struct {
	// MemSize is main memory in bytes; zero means 1 MiB.
	MemSize int
	// StackTop is the initial SP; zero places it at the top of memory.
	StackTop uint32
	// MaxInstructions is the initial instruction budget, aborting
	// runaway programs; zero means 2^32.
	MaxInstructions uint64
	// NoICache disables the predecoded instruction cache, forcing every
	// instruction through the bytewise fetch path. Simulated cycles,
	// statistics and faults are identical either way by construction.
	NoICache bool
}

func (c Config) withDefaults() Config {
	if c.MemSize == 0 {
		c.MemSize = mem.DefaultSize
	}
	if c.StackTop == 0 {
		c.StackTop = uint32(c.MemSize)
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 1 << 32
	}
	return c
}

// Stats holds CISC-specific dynamic counters.
type Stats struct {
	BranchesTaken   uint64
	BranchesUntaken uint64
	Calls           uint64
	Returns         uint64
	CallCycles      uint64 // cycles spent inside CALLS/RET microcode
	CallMemWords    uint64 // longwords of call-frame stack traffic
	InstBytes       uint64 // instruction-stream bytes fetched
}

// CPU is the baseline CISC processor. The embedded fuel driver
// supplies Run, RunContext, RunSteps and SetMaxInstructions.
type CPU struct {
	fuel.Driver
	cfg Config

	Mem   *mem.Memory
	R     [NumRegs]uint32
	Trace *trace.Collector
	Stats Stats

	// Obs, when non-nil, receives structured execution events
	// (instructions, CALLS/RET, faults) for tracing and profiling, the
	// same layer the RISC CPU drives. nil keeps the hot loop
	// observation-free; attaching it never changes simulated state.
	Obs *obs.Observer

	pc         uint32
	n, z, v, c bool
	depth      int
	halted     bool
	haltErr    error

	// obsPending stages a call/return performed by the current
	// instruction until observe can report it in order (instruction
	// first, then the transfer). Only touched when Obs is attached.
	obsPending uint8
	obsTarget  uint32

	opHandles [numOps]int // trace handles indexed by opcode

	// icache holds the static decode of each instruction by its first
	// byte (nil with NoICache); stores invalidate it through the
	// Memory.OnStore hook, reaching back MaxInstLen-1 bytes so a store
	// into any byte of a cached instruction drops it.
	icache *predecode.Cache[predecoded]
}

const (
	obsPendingNone uint8 = iota
	obsPendingCall
	obsPendingRet
)

// New builds a CPU with zeroed memory and registers.
func New(cfg Config) *CPU {
	cfg = cfg.withDefaults()
	c := &CPU{cfg: cfg, Mem: mem.New(cfg.MemSize), Trace: trace.New()}
	for _, info := range Instructions() {
		c.opHandles[info.Op] = c.Trace.Handle(info.Name, info.Class)
	}
	if !cfg.NoICache {
		c.icache = predecode.New[predecoded](cfg.MemSize, 0, uint32(MaxInstLen-1))
		c.icache.Attach(c.Mem)
	}
	c.Driver = fuel.New("vax", c, c.Trace, cfg.MaxInstructions)
	c.resetState(0)
	return c
}

// Config returns the effective configuration.
func (c *CPU) Config() Config { return c.cfg }

// PC returns the address of the next instruction.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether the machine stopped, and the fault if any.
func (c *CPU) Halted() (bool, error) { return c.halted, c.haltErr }

func (c *CPU) resetState(entry uint32) {
	c.pc = entry
	c.R = [NumRegs]uint32{}
	c.R[RegSP] = c.cfg.StackTop
	c.R[RegFP] = c.cfg.StackTop
	c.R[RegAP] = c.cfg.StackTop
	c.n, c.z, c.v, c.c = false, false, false, false
	c.depth = 0
	c.halted = false
	c.haltErr = nil
	c.Stats = Stats{}
}

// Reset clears memory and registers and sets the entry point.
func (c *CPU) Reset(entry uint32) {
	c.Mem.Reset()
	c.Trace.Reset()
	c.resetState(entry)
}

// SetEntry rewinds execution without clearing memory.
func (c *CPU) SetEntry(entry uint32) {
	c.Trace.Reset()
	c.resetState(entry)
}

// StepN executes up to n instructions, stopping early at a halt — the
// loop under the embedded fuel driver's Run, RunContext and RunSteps.
// The hit path walks the byte-granular predecoded span at pc
// straight-line, stepping by each instruction's length: one cache
// lookup serves every instruction up to the first taken transfer,
// invalid entry, page end, halt, or the n-th instruction. A miss takes
// the slow path, miss.
func (c *CPU) StepN(n uint64) {
	for n > 0 && !c.halted {
		span := c.icache.Span(c.pc)
		if span == nil {
			c.miss()
			n--
			continue
		}
		k, off, base := uint64(0), 0, c.pc
		for off < len(span) && k < n {
			e := &span[off]
			if !e.Valid {
				break
			}
			off += int(e.D.size) // read before the instruction can clear e
			c.stepDecoded(&e.D)
			k++
			if c.pc != base+uint32(off) || c.halted {
				break
			}
		}
		c.icache.AddHits(k)
		n -= k
	}
}

// Step executes one instruction.
func (c *CPU) Step() { c.StepN(1) }

func (c *CPU) fault(err error) {
	c.halted = true
	c.haltErr = err
	if o := c.Obs; o != nil && o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: obs.KindFault, PC: c.pc, Cycle: c.Trace.Cycles, Text: err.Error()})
	}
}

// observe feeds the observer one completed instruction plus any call or
// return it performed. It runs before ExecHandle, so c.Trace.Cycles is
// still the cycle count at which the instruction began. calls and ret
// stage their transfer in obsPending* rather than reporting directly so
// the profiler charges the microcode cycles to the call site before the
// new activation opens.
func (c *CPU) observe(pcStart uint32, name string, cost uint64) {
	o := c.Obs
	if o.Prof != nil {
		o.Prof.Sample(pcStart, cost)
	}
	if o.Tracer != nil {
		text := name
		if raw, err := c.Mem.ReadBytes(pcStart, disasmWindow(c.Mem.Size(), pcStart)); err == nil {
			if t, _, derr := Disassemble(raw, 0, pcStart); derr == nil {
				text = t
			}
		}
		o.Tracer.Emit(obs.Event{
			Kind: obs.KindInstr, PC: pcStart, Cycle: c.Trace.Cycles,
			Cost: cost, Op: name, Text: text,
		})
	}
	switch c.obsPending {
	case obsPendingCall:
		if o.Prof != nil {
			o.Prof.EnterCall(c.obsTarget)
		}
		if o.Tracer != nil {
			o.Tracer.Emit(obs.Event{Kind: obs.KindCall, PC: pcStart, Cycle: c.Trace.Cycles, Target: c.obsTarget, Depth: c.depth})
		}
	case obsPendingRet:
		if o.Prof != nil {
			o.Prof.LeaveCall()
		}
		if o.Tracer != nil {
			o.Tracer.Emit(obs.Event{Kind: obs.KindReturn, PC: pcStart, Cycle: c.Trace.Cycles, Target: c.obsTarget, Depth: c.depth})
		}
	}
	c.obsPending = obsPendingNone
}

// disasmWindow bounds a read of one variable-length instruction to the
// longest encodable form.
func disasmWindow(memSize int, pc uint32) int {
	n := MaxInstLen
	if rest := memSize - int(pc); rest < n {
		n = rest
	}
	return n
}

// fetchByte reads one instruction-stream byte and advances PC.
func (c *CPU) fetchByte() (byte, bool) {
	b, err := c.Mem.FetchByte(c.pc)
	if err != nil {
		c.fault(fmt.Errorf("vax: fetch at %#08x: %w", c.pc, err))
		return 0, false
	}
	c.pc++
	c.Stats.InstBytes++
	return b, true
}

func (c *CPU) fetchN(n int) (uint32, bool) {
	var v uint32
	for i := 0; i < n; i++ {
		b, ok := c.fetchByte()
		if !ok {
			return 0, false
		}
		v = v<<8 | uint32(b)
	}
	return v, true
}

// location identifies where an operand lives.
type location struct {
	isReg bool
	reg   uint8
	addr  uint32
}

// operand is a decoded operand: its value (for reads), its location (for
// writes), and the cycle cost of evaluating its specifier.
type operand struct {
	val    uint32
	loc    location
	hasLoc bool
}

// decodeOperand evaluates one operand specifier, accumulating cycles.
func (c *CPU) decodeOperand(arg Arg, cycles *uint64) (operand, bool) {
	*cycles += costSpecifier
	spec, ok := c.fetchByte()
	if !ok {
		return operand{}, false
	}
	mode := Mode(spec >> 4)
	reg := spec & 0x0f

	var addr uint32
	switch mode {
	case ModeReg:
		o := operand{loc: location{isReg: true, reg: reg}, hasLoc: true}
		if arg.Kind == ArgRead || arg.Kind == ArgMod {
			o.val = c.readReg(reg, arg.Size)
		}
		if arg.Kind == ArgAddr {
			c.fault(fmt.Errorf("vax: at %#08x: address of a register", c.pc))
			return operand{}, false
		}
		return o, true
	case ModeDeferred:
		addr = c.R[reg]
	case ModeAutoInc:
		addr = c.R[reg]
		c.R[reg] += uint32(arg.Size)
	case ModeAutoDec:
		c.R[reg] -= uint32(arg.Size)
		addr = c.R[reg]
	case ModeDisp8, ModeDisp16, ModeDisp32:
		n := 1
		switch mode {
		case ModeDisp16:
			n = 2
		case ModeDisp32:
			n = 4
		}
		raw, ok := c.fetchN(n)
		if !ok {
			return operand{}, false
		}
		*cycles += costDispFetch
		disp := signExtend(raw, uint(8*n))
		addr = c.R[reg] + uint32(disp)
	case ModeImmAbs:
		if reg == immSub {
			raw, ok := c.fetchN(int(arg.Size))
			if !ok {
				return operand{}, false
			}
			*cycles += costDispFetch
			if arg.Kind == ArgWrite || arg.Kind == ArgMod || arg.Kind == ArgAddr {
				c.fault(fmt.Errorf("vax: at %#08x: immediate used as destination", c.pc))
				return operand{}, false
			}
			return operand{val: signExtendToSize(raw, arg.Size)}, true
		}
		raw, ok := c.fetchN(4)
		if !ok {
			return operand{}, false
		}
		*cycles += costDispFetch
		addr = raw
	default:
		c.fault(fmt.Errorf("vax: at %#08x: bad operand mode %d", c.pc, mode))
		return operand{}, false
	}

	return c.memOperand(arg, addr, cycles)
}

// memOperand finishes a memory operand at its effective address:
// reads and read-modify-writes load the value now, charging the memory
// round trip; a fault names the pc just past the operand's bytes.
func (c *CPU) memOperand(arg Arg, addr uint32, cycles *uint64) (operand, bool) {
	o := operand{loc: location{addr: addr}, hasLoc: true}
	if arg.Kind == ArgAddr {
		return o, true // effective address only; no memory access
	}
	if arg.Kind == ArgRead || arg.Kind == ArgMod {
		*cycles += costMemOperand
		v, err := c.loadSized(addr, arg.Size)
		if err != nil {
			c.fault(fmt.Errorf("vax: at %#08x: %w", c.pc, err))
			return operand{}, false
		}
		o.val = v
	}
	return o, true
}

func signExtend(v uint32, bitCount uint) int32 {
	sh := 32 - bitCount
	return int32(v<<sh) >> sh
}

func signExtendToSize(v uint32, s Size) uint32 {
	switch s {
	case SizeB:
		return uint32(int32(v<<24) >> 24)
	case SizeW:
		return uint32(int32(v<<16) >> 16)
	}
	return v
}

func (c *CPU) readReg(r uint8, s Size) uint32 {
	v := c.R[r]
	switch s {
	case SizeB:
		return v & 0xff
	case SizeW:
		return v & 0xffff
	}
	return v
}

func (c *CPU) loadSized(addr uint32, s Size) (uint32, error) {
	switch s {
	case SizeB:
		return c.Mem.LoadByte(addr)
	case SizeW:
		return c.Mem.LoadHalf(addr)
	}
	return c.Mem.LoadWord(addr)
}

// write stores a result to a decoded location, charging memory cost.
func (c *CPU) write(loc location, s Size, v uint32, cycles *uint64) bool {
	if loc.isReg {
		switch s {
		case SizeB:
			c.R[loc.reg] = c.R[loc.reg]&^0xff | v&0xff
		case SizeW:
			c.R[loc.reg] = c.R[loc.reg]&^0xffff | v&0xffff
		default:
			c.R[loc.reg] = v
		}
		return true
	}
	*cycles += costMemOperand
	var err error
	switch s {
	case SizeB:
		err = c.Mem.StoreByte(loc.addr, v)
	case SizeW:
		err = c.Mem.StoreHalf(loc.addr, v)
	default:
		err = c.Mem.StoreWord(loc.addr, v)
	}
	if err != nil {
		c.fault(fmt.Errorf("vax: at %#08x: %w", c.pc, err))
		return false
	}
	return true
}

// setNZ sets N and Z from a result and clears V (the MOV-class rule; C is
// left alone, as on the VAX).
func (c *CPU) setNZ(v uint32) {
	c.n = int32(v) < 0
	c.z = v == 0
	c.v = false
}

func (c *CPU) push(v uint32, cycles *uint64) bool {
	c.R[RegSP] -= 4
	*cycles += costStackWord
	if err := c.Mem.StoreWord(c.R[RegSP], v); err != nil {
		c.fault(fmt.Errorf("vax: push: %w", err))
		return false
	}
	return true
}

func (c *CPU) pop(cycles *uint64) (uint32, bool) {
	v, err := c.Mem.LoadWord(c.R[RegSP])
	if err != nil {
		c.fault(fmt.Errorf("vax: pop: %w", err))
		return 0, false
	}
	c.R[RegSP] += 4
	*cycles += costStackWord
	return v, true
}

// miss is StepN's slow path for one instruction the cache cannot
// serve. With the icache on, an instruction whose static decode
// succeeds is filled and runs from its predecoded record
// (stepDecoded); one whose decode would fault, and every instruction
// with NoICache, runs on the bytewise fetch path below, which raises
// each fault at the byte it always did.
func (c *CPU) miss() {
	c.icache.CountMiss()
	if c.icache != nil {
		if d, ok := c.decodeStatic(c.pc); ok {
			c.icache.Fill(c.pc, d)
			c.stepDecoded(&d)
			return
		}
	}
	pcStart := c.pc
	opb, ok := c.fetchByte()
	if !ok {
		return
	}
	op := Op(opb)
	info, valid := Lookup(op)
	if !valid {
		c.fault(fmt.Errorf("vax: at %#08x: illegal opcode %#02x", c.pc-1, opb))
		return
	}

	cycles := uint64(costDispatch)
	var opsBuf [3]operand
	nops := 0
	var brDisp int32
	for _, arg := range info.Args {
		if arg.Kind == ArgBr8 || arg.Kind == ArgBr16 {
			n := 1
			if arg.Kind == ArgBr16 {
				n = 2
			}
			raw, ok := c.fetchN(n)
			if !ok {
				return
			}
			brDisp = signExtend(raw, uint(8*n))
			continue
		}
		o, ok := c.decodeOperand(arg, &cycles)
		if !ok {
			return
		}
		opsBuf[nops] = o
		nops++
	}

	if !c.exec(op, &info, opsBuf[:nops], brDisp, &cycles) {
		return
	}
	if c.Obs != nil {
		c.observe(pcStart, info.Name, cycles)
	}
	c.Trace.ExecHandle(c.opHandles[op], cycles)
}

func (c *CPU) exec(op Op, info *Info, ops []operand, brDisp int32, cycles *uint64) bool {
	switch op {
	case HALT:
		c.halted = true
	case NOP:

	case MOVB, MOVW, MOVL:
		v := ops[0].val
		if !c.write(ops[1].loc, info.Args[1].Size, v, cycles) {
			return false
		}
		c.setNZ(signExtendToSize(v, info.Args[1].Size))
	case MOVAL:
		if !c.write(ops[1].loc, SizeL, ops[0].loc.addr, cycles) {
			return false
		}
		c.setNZ(ops[0].loc.addr)
	case MOVZBL:
		v := ops[0].val & 0xff
		if !c.write(ops[1].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)
	case MOVZWL:
		v := ops[0].val & 0xffff
		if !c.write(ops[1].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)
	case CVTBL:
		v := uint32(int32(ops[0].val<<24) >> 24)
		if !c.write(ops[1].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)
	case CVTWL:
		v := uint32(int32(ops[0].val<<16) >> 16)
		if !c.write(ops[1].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)
	case CLRL:
		if !c.write(ops[0].loc, SizeL, 0, cycles) {
			return false
		}
		c.setNZ(0)
	case MNEGL:
		v := -ops[0].val
		if !c.write(ops[1].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)
	case MCOML:
		v := ^ops[0].val
		if !c.write(ops[1].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)
	case PUSHL:
		if !c.push(ops[0].val, cycles) {
			return false
		}
		c.setNZ(ops[0].val)

	case INCL, DECL:
		v := ops[0].val + 1
		if op == DECL {
			v = ops[0].val - 1
		}
		if !c.write(ops[0].loc, SizeL, v, cycles) {
			return false
		}
		c.setArith(ops[0].val, 1, v, op == DECL)
	case ADDL2, ADDL3:
		return c.arith3(ops, cycles, func(a, b uint32) uint32 { return b + a }, false)
	case SUBL2, SUBL3:
		return c.arith3(ops, cycles, func(a, b uint32) uint32 { return b - a }, true)
	case MULL2, MULL3:
		*cycles += costMul
		return c.logic3(ops, cycles, func(a, b uint32) uint32 { return b * a })
	case DIVL2, DIVL3:
		*cycles += costDiv
		if ops[0].val == 0 {
			c.fault(fmt.Errorf("vax: at %#08x: divide by zero", c.pc))
			return false
		}
		return c.logic3(ops, cycles, func(a, b uint32) uint32 {
			return uint32(int32(b) / int32(a))
		})
	case BISL2, BISL3:
		return c.logic3(ops, cycles, func(a, b uint32) uint32 { return b | a })
	case BICL2, BICL3:
		return c.logic3(ops, cycles, func(a, b uint32) uint32 { return b &^ a })
	case XORL2, XORL3:
		return c.logic3(ops, cycles, func(a, b uint32) uint32 { return b ^ a })
	case ANDL3:
		return c.logic3(ops, cycles, func(a, b uint32) uint32 { return b & a })
	case ASHL:
		cnt := int32(signExtendToSize(ops[0].val, SizeB))
		src := ops[1].val
		var v uint32
		switch {
		case cnt >= 32 || cnt <= -32:
			v = 0
			if cnt < 0 && int32(src) < 0 {
				v = ^uint32(0)
			}
		case cnt >= 0:
			v = src << uint(cnt)
		default:
			v = uint32(int32(src) >> uint(-cnt))
		}
		if !c.write(ops[2].loc, SizeL, v, cycles) {
			return false
		}
		c.setNZ(v)

	case CMPL:
		a, b := ops[0].val, ops[1].val
		c.n = int32(a) < int32(b)
		c.z = a == b
		c.v = false
		c.c = a < b
	case CMPB:
		a := signExtendToSize(ops[0].val, SizeB)
		b := signExtendToSize(ops[1].val, SizeB)
		c.n = int32(a) < int32(b)
		c.z = a == b
		c.v = false
		c.c = a&0xff < b&0xff
	case TSTL:
		c.setNZ(ops[0].val)
		c.c = false

	case BRB, BRW:
		*cycles += costBranchTaken
		c.pc += uint32(brDisp)
	case JMP:
		*cycles += costBranchTaken
		c.pc = ops[0].loc.addr
	case BEQL, BNEQ, BLSS, BLEQ, BGTR, BGEQ, BLSSU, BLEQU, BGTRU, BGEQU:
		if c.evalCond(info.Cond) {
			*cycles += costBranchTaken
			c.Stats.BranchesTaken++
			c.pc += uint32(brDisp)
		} else {
			c.Stats.BranchesUntaken++
		}

	case CALLS:
		return c.calls(ops, cycles)
	case RET:
		return c.ret(cycles)

	default:
		c.fault(fmt.Errorf("vax: unimplemented opcode %v", info.Name))
		return false
	}
	return true
}

// arith3 handles the 2- and 3-operand add/sub forms and full flags.
func (c *CPU) arith3(ops []operand, cycles *uint64, f func(a, b uint32) uint32, isSub bool) bool {
	a, b := ops[0].val, ops[1].val
	res := f(a, b)
	dst := len(ops) - 1
	if !c.write(ops[dst].loc, SizeL, res, cycles) {
		return false
	}
	c.setArith(b, a, res, isSub)
	return true
}

func (c *CPU) setArith(b, a, res uint32, isSub bool) {
	c.n = int32(res) < 0
	c.z = res == 0
	if isSub {
		c.c = b < a // borrow
		c.v = (b^a)&(b^res)&0x80000000 != 0
	} else {
		c.c = res < a
		c.v = (a^res)&(b^res)&0x80000000 != 0
	}
}

// logic3 handles 2- and 3-operand forms that set only N and Z.
func (c *CPU) logic3(ops []operand, cycles *uint64, f func(a, b uint32) uint32) bool {
	res := f(ops[0].val, ops[1].val)
	dst := len(ops) - 1
	if !c.write(ops[dst].loc, SizeL, res, cycles) {
		return false
	}
	c.setNZ(res)
	return true
}

func (c *CPU) evalCond(cond BranchCond) bool {
	switch cond {
	case condEQL:
		return c.z
	case condNEQ:
		return !c.z
	case condLSS:
		return c.n
	case condLEQ:
		return c.n || c.z
	case condGTR:
		return !c.n && !c.z
	case condGEQ:
		return !c.n
	case condLSSU:
		return c.c
	case condLEQU:
		return c.c || c.z
	case condGTRU:
		return !c.c && !c.z
	case condGEQU:
		return !c.c
	}
	return false
}

// calls implements the microcoded procedure call: it reads the entry mask
// at the target, pushes the argument count, return state and masked
// registers, and repoints AP/FP — the expensive call the paper contrasts
// with RISC I's one-cycle window advance.
func (c *CPU) calls(ops []operand, cycles *uint64) bool {
	*cycles += costCallsBase
	start := *cycles
	n := ops[0].val
	dst := ops[1].loc.addr
	mask, err := c.Mem.LoadHalf(dst)
	if err != nil {
		c.fault(fmt.Errorf("vax: calls: reading entry mask: %w", err))
		return false
	}
	if !c.push(n, cycles) {
		return false
	}
	newAP := c.R[RegSP]
	if !c.push(c.pc, cycles) { // return address
		return false
	}
	if !c.push(c.R[RegFP], cycles) {
		return false
	}
	if !c.push(c.R[RegAP], cycles) {
		return false
	}
	for i := uint8(0); i < 12; i++ {
		if mask&(1<<i) != 0 {
			if !c.push(c.R[i], cycles) {
				return false
			}
		}
	}
	if !c.push(mask, cycles) {
		return false
	}
	c.R[RegAP] = newAP
	c.R[RegFP] = c.R[RegSP]
	c.pc = dst + 2
	c.depth++
	c.Trace.Depth(c.depth)
	if c.Obs != nil {
		c.obsPending = obsPendingCall
		c.obsTarget = dst
	}
	c.Stats.Calls++
	c.Stats.CallCycles += *cycles - start + costCallsBase
	c.Stats.CallMemWords += 5 + uint64(bits.OnesCount16(uint16(mask)))
	return true
}

// ret unwinds the CALLS frame.
func (c *CPU) ret(cycles *uint64) bool {
	*cycles += costRetBase
	start := *cycles
	c.R[RegSP] = c.R[RegFP]
	mask, ok := c.pop(cycles)
	if !ok {
		return false
	}
	for i := 11; i >= 0; i-- {
		if mask&(1<<uint(i)) != 0 {
			v, ok := c.pop(cycles)
			if !ok {
				return false
			}
			c.R[i] = v
		}
	}
	ap, ok := c.pop(cycles)
	if !ok {
		return false
	}
	fp, ok := c.pop(cycles)
	if !ok {
		return false
	}
	ra, ok := c.pop(cycles)
	if !ok {
		return false
	}
	n, ok := c.pop(cycles)
	if !ok {
		return false
	}
	c.R[RegAP] = ap
	c.R[RegFP] = fp
	c.R[RegSP] += 4 * n
	c.pc = ra
	c.depth--
	if c.Obs != nil {
		c.obsPending = obsPendingRet
		c.obsTarget = ra
	}
	c.Stats.Returns++
	c.Stats.CallCycles += *cycles - start + costRetBase
	c.Stats.CallMemWords += 5 + uint64(bits.OnesCount16(uint16(mask)))
	return true
}

// ICacheStats reports predecode-cache activity (zero with NoICache):
// host-speed machinery, never part of the simulated machine or its
// report.
func (c *CPU) ICacheStats() predecode.Stats { return c.icache.Stats() }

// Micros converts cycles to microseconds at the baseline's 200 ns cycle.
func (c *CPU) Micros() float64 {
	return float64(c.Trace.Cycles) * CycleNS / 1000
}

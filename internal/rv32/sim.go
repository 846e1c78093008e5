package rv32

import (
	"fmt"
	"math"

	"risc1/internal/fuel"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/predecode"
	"risc1/internal/trace"
)

// Config selects the machine's parameters.
type Config struct {
	// MemSize is main memory in bytes; zero means 1 MiB.
	MemSize int
	// StackTop is the initial sp; zero places it at the top of memory.
	StackTop uint32
	// MaxInstructions is the initial instruction budget, aborting
	// runaway programs; zero means 2^32.
	MaxInstructions uint64
	// NoICache disables the predecoded instruction cache, forcing a
	// fetch+decode from memory on every instruction. Simulated cycles
	// and statistics are identical either way by construction.
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

// Stats holds rv32-specific dynamic counters.
type Stats struct {
	BranchesTaken   uint64
	BranchesUntaken uint64
	Calls           uint64
	Returns         uint64
	MulDivOps       uint64 // M-extension instructions executed
}

// CPU is the delay-slot-free RISC processor. The embedded fuel driver
// supplies Run, RunContext, RunSteps and SetMaxInstructions.
type CPU struct {
	fuel.Driver
	cfg Config

	Mem   *mem.Memory
	R     [NumRegs]uint32
	Trace *trace.Collector
	Stats Stats

	// Obs, when non-nil, receives structured execution events
	// (instructions, calls, returns, faults) for tracing and profiling —
	// the same layer the other machines drive. nil keeps the hot loop
	// observation-free; attaching it never changes simulated state.
	Obs *obs.Observer

	pc      uint32
	depth   int
	halted  bool
	haltErr error

	// obsPending stages a call/return performed by the current
	// instruction until observe can report it in order.
	obsPending uint8
	obsTarget  uint32

	opHandles [numOps]int // trace handles indexed by opcode

	// icache holds decoded instructions by word address (nil with
	// NoICache); stores invalidate it through the Memory.OnStore hook.
	icache *predecode.Cache[Inst]
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
		c.icache = predecode.New[Inst](cfg.MemSize, 2, 0)
		c.icache.Attach(c.Mem)
	}
	c.Driver = fuel.New("rv32", c, c.Trace, cfg.MaxInstructions)
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
	c.depth = 0
	c.halted = false
	c.haltErr = nil
	c.Stats = Stats{}
	c.obsPending = obsPendingNone
	c.obsTarget = 0
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
// The hit path walks the predecoded span at pc straight-line: one
// cache lookup serves every instruction up to the first taken
// transfer, invalid entry, page end, halt, or the n-th instruction. A
// miss takes the slow path, miss.
func (c *CPU) StepN(n uint64) {
	for n > 0 && !c.halted {
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
			// exec takes the record by value, copied before it runs: a
			// store by this instruction into its own word clears e in
			// place.
			c.exec(e.D)
			k++
			next += 4
			if c.pc != next || c.halted {
				break
			}
		}
		c.icache.AddHits(uint64(k))
		n -= uint64(k)
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
// return it performed, in the same order contract as the other
// machines: the instruction first, then the transfer.
func (c *CPU) observe(pcStart uint32, name string, cost uint64) {
	o := c.Obs
	if o.Prof != nil {
		o.Prof.Sample(pcStart, cost)
	}
	if o.Tracer != nil {
		text := name
		if raw, err := c.Mem.ReadBytes(pcStart, 4); err == nil {
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

// setReg writes a register, keeping x0 hardwired to zero.
func (c *CPU) setReg(r uint8, v uint32) {
	if r != RegZero {
		c.R[r] = v
	}
}

// miss is StepN's slow path for one instruction the cache cannot
// serve: fetch and decode, raising exactly the faults it always did,
// refill the entry on success, and execute.
func (c *CPU) miss() {
	c.icache.CountMiss()
	w, err := c.Mem.FetchWord(c.pc)
	if err != nil {
		c.fault(fmt.Errorf("rv32: fetch at %#08x: %w", c.pc, err))
		return
	}
	in, err := Decode(w)
	if err != nil {
		c.fault(fmt.Errorf("rv32: at %#08x: %w", c.pc, err))
		return
	}
	c.icache.Fill(c.pc, in)
	c.exec(in)
}

// exec executes one decoded instruction and accounts for it; a faulting
// instruction halts the machine and is not counted.
func (c *CPU) exec(in Inst) {
	pcStart := c.pc
	cycles := uint64(costBase)
	next := c.pc + 4
	r1, r2 := c.R[in.Rs1], c.R[in.Rs2]

	switch in.Op {
	case LUI:
		c.setReg(in.Rd, uint32(in.Imm)<<12)
	case AUIPC:
		c.setReg(in.Rd, c.pc+uint32(in.Imm)<<12)

	case JAL:
		target := c.pc + uint32(in.Imm)
		c.setReg(in.Rd, next)
		cycles += costBranchTaken
		if in.Rd == RegRA {
			c.callEnter(target)
		}
		next = target
	case JALR:
		target := (r1 + uint32(in.Imm)) &^ 1
		isRet := in.Rd == RegZero && in.Rs1 == RegRA
		c.setReg(in.Rd, next)
		cycles += costBranchTaken
		if in.Rd == RegRA {
			c.callEnter(target)
		} else if isRet {
			c.callLeave(target)
		}
		next = target

	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		var taken bool
		switch in.Op {
		case BEQ:
			taken = r1 == r2
		case BNE:
			taken = r1 != r2
		case BLT:
			taken = int32(r1) < int32(r2)
		case BGE:
			taken = int32(r1) >= int32(r2)
		case BLTU:
			taken = r1 < r2
		default:
			taken = r1 >= r2
		}
		if taken {
			cycles += costBranchTaken
			c.Stats.BranchesTaken++
			next = c.pc + uint32(in.Imm)
		} else {
			c.Stats.BranchesUntaken++
		}

	case LB, LBU, LW:
		cycles += costMemExtra
		addr := r1 + uint32(in.Imm)
		var v uint32
		var err error
		switch in.Op {
		case LW:
			v, err = c.Mem.LoadWord(addr)
		default:
			v, err = c.Mem.LoadByte(addr)
			if in.Op == LB {
				v = uint32(int32(v<<24) >> 24)
			}
		}
		if err != nil {
			c.fault(fmt.Errorf("rv32: at %#08x: %w", c.pc, err))
			return
		}
		c.setReg(in.Rd, v)
	case SB, SW:
		cycles += costMemExtra
		addr := r1 + uint32(in.Imm)
		var err error
		if in.Op == SW {
			err = c.Mem.StoreWord(addr, r2)
		} else {
			err = c.Mem.StoreByte(addr, r2)
		}
		if err != nil {
			c.fault(fmt.Errorf("rv32: at %#08x: %w", c.pc, err))
			return
		}

	case ADDI:
		c.setReg(in.Rd, r1+uint32(in.Imm))
	case SLTI:
		c.setReg(in.Rd, boolReg(int32(r1) < in.Imm))
	case SLTIU:
		c.setReg(in.Rd, boolReg(r1 < uint32(in.Imm)))
	case XORI:
		c.setReg(in.Rd, r1^uint32(in.Imm))
	case ORI:
		c.setReg(in.Rd, r1|uint32(in.Imm))
	case ANDI:
		c.setReg(in.Rd, r1&uint32(in.Imm))
	case SLLI:
		c.setReg(in.Rd, r1<<uint(in.Imm))
	case SRLI:
		c.setReg(in.Rd, r1>>uint(in.Imm))
	case SRAI:
		c.setReg(in.Rd, uint32(int32(r1)>>uint(in.Imm)))

	case ADD:
		c.setReg(in.Rd, r1+r2)
	case SUB:
		c.setReg(in.Rd, r1-r2)
	case SLL:
		c.setReg(in.Rd, r1<<(r2&31))
	case SLT:
		c.setReg(in.Rd, boolReg(int32(r1) < int32(r2)))
	case SLTU:
		c.setReg(in.Rd, boolReg(r1 < r2))
	case XOR:
		c.setReg(in.Rd, r1^r2)
	case SRL:
		c.setReg(in.Rd, r1>>(r2&31))
	case SRA:
		c.setReg(in.Rd, uint32(int32(r1)>>(r2&31)))
	case OR:
		c.setReg(in.Rd, r1|r2)
	case AND:
		c.setReg(in.Rd, r1&r2)

	case MUL:
		cycles += costMul
		c.Stats.MulDivOps++
		c.setReg(in.Rd, r1*r2)
	case DIV:
		cycles += costDiv
		c.Stats.MulDivOps++
		c.setReg(in.Rd, uint32(div32(int32(r1), int32(r2))))
	case REM:
		cycles += costDiv
		c.Stats.MulDivOps++
		c.setReg(in.Rd, uint32(rem32(int32(r1), int32(r2))))

	case ECALL:
		c.halted = true
	case EBREAK:
		c.fault(fmt.Errorf("rv32: ebreak at %#08x", c.pc))
		return

	default:
		c.fault(fmt.Errorf("rv32: unimplemented opcode %v", infos[in.Op].Name))
		return
	}
	c.pc = next
	if c.Obs != nil {
		c.observe(pcStart, infos[in.Op].Name, cycles)
	}
	c.Trace.ExecHandle(c.opHandles[in.Op], cycles)
}

func boolReg(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// div32 and rem32 implement the M-extension's trap-free semantics:
// divide by zero yields quotient -1 and remainder = dividend; the
// MinInt32/-1 overflow yields MinInt32 and remainder 0.
func div32(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt32 && b == -1:
		return math.MinInt32
	}
	return a / b
}

func rem32(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt32 && b == -1:
		return 0
	}
	return a % b
}

// callEnter and callLeave track procedure nesting for the depth
// histogram and the observer, mirroring the other machines.
func (c *CPU) callEnter(target uint32) {
	c.depth++
	c.Trace.Depth(c.depth)
	c.Stats.Calls++
	if c.Obs != nil {
		c.obsPending = obsPendingCall
		c.obsTarget = target
	}
}

func (c *CPU) callLeave(target uint32) {
	c.depth--
	c.Stats.Returns++
	if c.Obs != nil {
		c.obsPending = obsPendingRet
		c.obsTarget = target
	}
}

// ICacheStats reports predecode-cache activity (zero with NoICache):
// host-speed machinery, never part of the simulated machine or its
// report.
func (c *CPU) ICacheStats() predecode.Stats { return c.icache.Stats() }

// Micros converts cycles to microseconds at the machine's cycle time.
func (c *CPU) Micros() float64 {
	return float64(c.Trace.Cycles) * CycleNS / 1000
}

// Package machine defines the simulator interface every backend in this
// repository implements, and a name-keyed registry of the backends
// themselves. The paper's comparison is only meaningful because both
// machines are driven identically — same compiler front end, same
// memory system, same observation layer — and this package is where
// that sameness becomes a contract: a Backend bundles a code generator
// entry point, a configuration builder, and a simulator factory, and
// everything above it (batch execution, debug sessions, the HTTP
// service, the bench harness, the CLIs) consumes machines through the
// registry instead of switching on names. Adding a machine means
// registering a Backend and passing the conformance suite
// (machinetest), not growing switch arms across the tree.
package machine

import (
	"context"

	"risc1/internal/cc/opt"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/syntax"
)

// Machine is one paused or running simulator with its memory. It is the
// exact surface the execution layers need: batch runs use RunContext,
// debug sessions use RunSteps, warm-start uses Snapshot/Restore, and
// reporting uses BuildReport. Implementations are not safe for
// concurrent use; one goroutine drives a machine at a time.
type Machine interface {
	// Reset fully reinitializes the machine — memory, registers,
	// statistics — and positions it at entry. Reuse after Reset is
	// indistinguishable from a fresh machine (pinned by the cross-job
	// leakage tests).
	Reset(entry uint32)
	// Mem exposes the machine's memory for program loading, result
	// readback, and debugger inspection.
	Mem() *mem.Memory
	// RunContext executes until halt, fault, or fuel exhaustion,
	// stopping between instruction quanta when ctx ends. Cancellation
	// never corrupts state: the machine stops on an instruction
	// boundary and can be resumed.
	RunContext(ctx context.Context) error
	// RunSteps executes at most n instructions. It reports whether the
	// machine halted, with the fault (or a wrapped fuel.ErrExhausted)
	// as the error; (false, nil) means the budget n ran out
	// with the program still going.
	RunSteps(n uint64) (halted bool, err error)
	// SetMaxInstructions replaces the fuel budget without rebuilding
	// the machine; zero restores the backend default.
	SetMaxInstructions(n uint64)
	// PC returns the address of the next instruction to execute.
	PC() uint32
	// Halted reports whether the machine stopped, and why (nil for a
	// clean halt).
	Halted() (bool, error)
	// Registers returns the current visible register values (the
	// active window for RISC I). Reads are side-effect-free.
	Registers() []uint32
	// Instructions and Cycles are the cumulative dynamic counts.
	Instructions() uint64
	Cycles() uint64
	// Micros converts the cycle count to simulated microseconds at the
	// backend's cycle time.
	Micros() float64
	// Observe attaches (or with nil detaches) the structured event
	// observer. Attaching an observer never changes simulated state.
	Observe(o *obs.Observer)
	// BuildReport returns the machine-readable run report, stamped
	// with the backend's canonical name.
	BuildReport(workload string) obs.Report
	// Snapshot captures the full machine state copy-on-write; Restore
	// re-enters it in O(touched pages). Restore panics if the snapshot
	// came from a different backend or an incompatible configuration —
	// cache keys upstream make that a programming error, not a runtime
	// condition.
	Snapshot() Snapshot
	Restore(s Snapshot)
	// Fork returns an independent copy of the machine — memory shared
	// copy-on-write, predecoded instructions cloned — that may run
	// concurrently with the original. Observers are not carried over.
	Fork() Machine
}

// Snapshot is a frozen machine state. Snapshots are immutable and may
// be restored into any number of machines concurrently.
type Snapshot interface {
	// MemPages is the number of resident memory pages, for cache
	// byte-budget accounting.
	MemPages() int
	// Instructions is the instruction count at capture time.
	Instructions() uint64
	// Release drops the snapshot's page references.
	Release()
}

// Program is an assembled, immutable guest program. LoadInto and the
// symbol queries only read the program, so one Program may be shared by
// any number of concurrent machines.
type Program interface {
	// LoadInto copies the program's segments into memory.
	LoadInto(m *mem.Memory) error
	// Symbol resolves a label to its address.
	Symbol(name string) (uint32, bool)
	// SortedSymbols lists the defined labels in address order.
	SortedSymbols() []string
	// Entry is the address execution starts at.
	Entry() uint32
	// TextBytes is the static code size — the paper's memory-traffic
	// tables compare it across machines.
	TextBytes() int
	// Footprint approximates the program's host memory cost for the
	// compiled-program cache's byte budget.
	Footprint() int64
}

// program adapts an assembler's output to Program. Every backend's
// assembler embeds the shared syntax.Program; orig is the backend's own
// *Program, which Unwrap returns.
type program struct {
	p    *syntax.Program
	orig any
}

func (p program) unwrap() any                    { return p.orig }
func (p program) LoadInto(m *mem.Memory) error   { return p.p.LoadInto(m) }
func (p program) Symbol(n string) (uint32, bool) { return p.p.Symbol(n) }
func (p program) SortedSymbols() []string        { return p.p.SortedSymbols() }
func (p program) Entry() uint32                  { return p.p.Entry }
func (p program) TextBytes() int                 { return p.p.TextSize }
func (p program) Footprint() int64 {
	n := int64(512)
	for _, seg := range p.p.Segments {
		n += int64(len(seg.Data))
	}
	return n + int64(len(p.p.Symbols))*32
}

// Options is every machine-facing knob a compile-and-run request can
// carry, across all backends. It is deliberately one flat comparable
// struct rather than per-backend types: simulator and image caches key
// on it directly, and Backend.Normalize zeroes the fields a backend
// ignores so equivalent requests share cache entries.
type Options struct {
	// Opt is the compiler optimization level (0 or 1).
	Opt int
	// DelaySlots enables the RISC I assembler's delayed-jump optimizer.
	// Meaningless on machines without delay slots.
	DelaySlots bool
	// Windows / NoWindows configure the RISC I register file (zero
	// means the paper's 8 windows). Meaningless on flat-register-file
	// machines.
	Windows   int
	NoWindows bool
	// NoICache disables the simulator's predecoded instruction cache
	// (internal/predecode), on every backend — host-speed machinery,
	// never architectural state.
	NoICache bool
	// MemSize is the simulated memory size in bytes; zero means the
	// backend default (1 MiB).
	MemSize int
	// Fuel is the instruction budget; zero means the backend default
	// (2^32). Exhausting it fails the run with a wrapped
	// fuel.ErrExhausted.
	Fuel uint64
}

// Unwrap returns the backend-specific simulator or program behind a
// Machine or Program adapter (e.g. *cpu.CPU, *asm.Program), for callers
// like the bench harness that report machine-specific statistics the
// generic interface deliberately omits. Values that are not adapters
// come back unchanged.
func Unwrap(v any) any {
	if u, ok := v.(interface{ unwrap() any }); ok {
		return u.unwrap()
	}
	return v
}

// passStats mirrors compiler pass statistics into the report's own
// type, dropping passes that did nothing (same rule everywhere a report
// is built).
func passStats(stats []opt.Stat) []obs.PassStat {
	var out []obs.PassStat
	for _, s := range stats {
		if s.Rewrites > 0 {
			out = append(out, obs.PassStat{Name: s.Name, Rewrites: s.Rewrites})
		}
	}
	return out
}

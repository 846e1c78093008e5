package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"risc1/internal/machine"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// Spec is a declarative compile+simulate job: MiniC source, a target
// machine, a compiler level, and resource bounds. It is the job model
// risc1-serve queues on the pool; the bench harness submits richer
// closures directly.
type Spec struct {
	// Name is the workload name stamped into the run report.
	Name string
	// Machine names the simulator in the machine registry (canonical
	// name or alias); empty means the default, RISC I. Validate names
	// upfront with machine.Canonical.
	Machine string
	// Source is the MiniC program. It must store its result in the
	// global named by ResultSym.
	Source string
	// Opt is the compiler optimization level (0 or 1).
	Opt int
	// DelaySlots enables the RISC assembler's delayed-jump optimizer.
	DelaySlots bool
	// Windows / NoWindows configure the RISC register file (zero means
	// the paper's 8 windows).
	Windows   int
	NoWindows bool
	// Fuel is the instruction budget; 0 means the simulator default
	// (2^32). Exhausting it fails the job with a wrapped
	// fuel.ErrExhausted.
	Fuel uint64
	// ResultSym is the global read back after the run; default "result".
	ResultSym string
	// ColdStart bypasses the warm-start image cache and re-runs the full
	// prelude (Reset + program load) for this run. Results are
	// byte-identical either way — the forked-vs-cold differential tests
	// enforce it — so this exists for those tests and for benchmarking
	// the warm-start speedup, not for callers.
	ColdStart bool
}

// Outcome is a completed spec: the guest-visible result word and the
// versioned run report. Host-machinery report sections (the RISC
// predecoded-icache counters) are scrubbed — worker simulators are
// reused across jobs, so those counters depend on pool history while
// every simulated number is job-deterministic.
type Outcome struct {
	Value  int32
	Report obs.Report
}

// CompileError marks a front-end failure (parse, type check, codegen or
// assembly) so callers can tell a bad program from a failed run.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// Job wraps the spec as a pool job.
func (s Spec) Job(key string, timeout time.Duration) Job {
	return Job{Key: key, Timeout: timeout, Fn: func(ctx context.Context, sims *Sims) (any, error) {
		return s.Run(ctx, sims)
	}}
}

// Options maps the spec's machine-facing knobs to registry options.
func (s Spec) Options() machine.Options {
	return machine.Options{
		Opt:        s.Opt,
		DelaySlots: s.DelaySlots,
		Windows:    s.Windows,
		NoWindows:  s.NoWindows,
		Fuel:       s.Fuel,
	}
}

// Run compiles and executes the spec on the worker's cached simulators.
// The default path is warm-start: the compiled+initialized machine image
// (post Reset + load) is checked into the pool-wide cache once, and each
// run re-enters it by restoring the snapshot — O(touched pages) instead
// of re-zeroing memory and re-copying segments. Set ColdStart to force
// the full prelude; the results are byte-identical.
func (s Spec) Run(ctx context.Context, sims *Sims) (Outcome, error) {
	return s.run(ctx, sims, nil)
}

// input is an optional fan-out input poked into a named global after the
// prelude and before execution (see RunFanout).
type input struct {
	sym string
	val int32
}

func (s Spec) run(ctx context.Context, sims *Sims, in *input) (Outcome, error) {
	sym := s.ResultSym
	if sym == "" {
		sym = "result"
	}
	b, ok := machine.Lookup(s.Machine)
	if !ok {
		_, err := machine.Canonical(s.Machine)
		return Outcome{}, fmt.Errorf("exec: %w", err)
	}
	o := b.Normalize(s.Options())
	m := sims.Machine(b, o)
	var prog machine.Program
	var passes []obs.PassStat
	if s.ColdStart {
		var err error
		prog, _, passes, err = sims.Compile(ctx, b, s.Source, o)
		if err != nil {
			return Outcome{}, err
		}
		m.Reset(prog.Entry())
		if err := prog.LoadInto(m.Mem()); err != nil {
			return Outcome{}, err
		}
	} else {
		img, err := sims.ImageFor(ctx, b, s.Source, o)
		if err != nil {
			return Outcome{}, err
		}
		prog, passes = img.Prog, img.Passes
		m.Restore(img.Snap)
	}
	if err := pokeInput(m.Mem(), prog, in); err != nil {
		return Outcome{}, err
	}
	if err := m.RunContext(ctx); err != nil {
		return Outcome{}, err
	}
	addr, ok := prog.Symbol(sym)
	if !ok {
		return Outcome{}, fmt.Errorf("exec: no global named %q", sym)
	}
	v, err := m.Mem().LoadWord(addr)
	if err != nil {
		return Outcome{}, err
	}
	rep := m.BuildReport(s.Name)
	b.ScrubReport(&rep) // host machinery accumulated across the worker's jobs
	rep.Config.Optimized = o.DelaySlots
	rep.Config.OptLevel = o.Opt
	rep.Config.Passes = passes
	return Outcome{Value: int32(v), Report: rep}, nil
}

// pokeInput writes a fan-out input into its global before the run. It
// uses WriteBytes so the poke does not count as guest memory traffic —
// the input is initial state, not a simulated store — and the OnStore
// hook it fires keeps the predecoded icache coherent even if a program
// places the global inside a code page.
func pokeInput(m *mem.Memory, prog interface {
	Symbol(string) (uint32, bool)
}, in *input) error {
	if in == nil {
		return nil
	}
	addr, ok := prog.Symbol(in.sym)
	if !ok {
		return fmt.Errorf("exec: no input global named %q", in.sym)
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(in.val))
	return m.WriteBytes(addr, b[:])
}

// CacheKey is the spec's content address for level-2 result caching:
// every field that reaches the run report or the result word is folded
// into the hash, plus the wall-clock budget (two requests differing
// only in deadline may legitimately differ in outcome). The machine
// name is canonicalized and the options normalized first, so a spec
// asking for an alias or carrying knobs its machine ignores addresses
// the same entry as the canonical spelling.
func (s Spec) CacheKey(timeout time.Duration) rcache.Key {
	name := s.Machine
	o := s.Options()
	if b, ok := machine.Lookup(s.Machine); ok {
		name = b.Name
		o = b.Normalize(o)
	}
	sym := s.ResultSym
	if sym == "" {
		sym = "result"
	}
	return rcache.NewKey("risc1.run/v2").
		Str("name", s.Name).
		Str("machine", name).
		Str("source", s.Source).
		Int("opt", int64(o.Opt)).
		Bool("delaySlots", o.DelaySlots).
		Int("windows", int64(o.Windows)).
		Bool("noWindows", o.NoWindows).
		Uint("fuel", o.Fuel).
		Str("resultSym", sym).
		Int("timeoutNS", int64(timeout)).
		Sum()
}

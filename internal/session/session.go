// Package session is the interactive-debugger subsystem behind
// risc1-serve's /v1/sessions API: long-lived paused machines that are
// driven instruction-by-instruction (step, run-until, breakpoints,
// register and memory inspection) while an obs.StreamSink fans their
// trace events out to any number of live subscribers.
//
// The contract that makes sessions servable at scale (DESIGN.md §13):
//
//   - One command at a time per session. A second command while one is
//     executing fails fast with ErrBusy — it never queues behind a long
//     run — so the HTTP layer can answer 409 session_busy immediately.
//   - Subscribers never slow the simulator. Trace delivery goes through
//     per-subscriber ring buffers with drop counters (obs.StreamSink);
//     a stalled consumer loses events, never time.
//   - Sessions die three ways — explicit close, idle timeout, server
//     drain — and all three end every subscriber's stream and fire the
//     session's release hook exactly once.
//   - Stepping is observationally identical to running: a session
//     stepped N instructions emits the exact trace-event sequence a
//     post-hoc traced run of the same program emits (pinned by the
//     differential tests), because commands drive the simulators' own
//     RunSteps and never touch architectural state.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"risc1/internal/machine"
	"risc1/internal/obs"
)

// Command errors the HTTP layer maps to stable API codes.
var (
	// ErrBusy: another command is executing on this session now.
	ErrBusy = errors.New("session: busy")
	// ErrClosed: the session was closed (explicitly, by idle timeout, or
	// by server drain) while or before the command ran.
	ErrClosed = errors.New("session: closed")
)

// runChunk is how many instructions a run command executes between
// breakpoint, cancellation, and budget checks when it can batch (no
// breakpoints armed): large enough to amortize the checks, small enough
// that cancellation and breakpoints land promptly.
const runChunk = 4096

// MaxMemoryRead caps one read-memory command, keeping responses bounded.
const MaxMemoryRead = 4096

// Session is one paused machine plus its live trace stream. The session
// layer is machine-agnostic: it drives any registered backend through
// machine.Machine and adds no simulation semantics of its own. All
// methods are safe for concurrent use; commands are serialized
// (ErrBusy).
type Session struct {
	id     string
	mach   machine.Machine
	sink   *obs.StreamSink
	symbol func(name string) (uint32, bool)

	// OnClose, when set before the session is shared, runs exactly once
	// when the session closes — the serve layer releases its admission
	// slot here.
	OnClose func()

	// cmdMu serializes commands. Commands TryLock: a busy session
	// answers immediately, it never queues work.
	cmdMu sync.Mutex
	bps   map[uint32]struct{}

	// ctx is cancelled by Close so in-flight run commands stop at the
	// next chunk boundary even when their HTTP context is still live.
	ctx    context.Context
	cancel context.CancelFunc

	stateMu  sync.Mutex
	busy     bool
	lastUsed time.Time
	closed   bool
	reason   string
}

// New wraps a paused machine as a session, attaching the trace stream
// (any existing observer on m is replaced). The machine must not be
// driven by anyone else for the session's lifetime.
func New(id string, m machine.Machine, prog machine.Program) *Session {
	s := newSession(id, m, prog.Symbol)
	m.Observe(&obs.Observer{Tracer: obs.NewTracer(0, s.sink)})
	return s
}

func newSession(id string, m machine.Machine, symbol func(string) (uint32, bool)) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{
		id:       id,
		mach:     m,
		sink:     obs.NewStreamSink(),
		symbol:   symbol,
		bps:      make(map[uint32]struct{}),
		ctx:      ctx,
		cancel:   cancel,
		lastUsed: time.Now(),
	}
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// StreamStats snapshots the session's fan-out counters.
func (s *Session) StreamStats() obs.StreamStats { return s.sink.Stats() }

// Subscribe attaches a live trace subscriber with the given ring size
// (<= 0 uses the obs default) and counts as session activity.
func (s *Session) Subscribe(ringSize int) *obs.Subscriber {
	s.touch()
	return s.sink.Subscribe(ringSize)
}

// Unsubscribe detaches a subscriber and ends its stream.
func (s *Session) Unsubscribe(sub *obs.Subscriber) { s.sink.Unsubscribe(sub) }

// Close ends the session: in-flight run commands stop at their next
// chunk boundary, every subscriber's stream ends (after draining its
// buffer), and OnClose fires. The reason is what idle or drain closures
// report; repeated closes keep the first reason. Safe to call from any
// goroutine, any number of times.
func (s *Session) Close(reason string) {
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		return
	}
	s.closed = true
	s.reason = reason
	s.stateMu.Unlock()
	s.cancel()
	s.sink.Close()
	if s.OnClose != nil {
		s.OnClose()
	}
}

// CloseReason returns why the session closed ("" while it is alive).
func (s *Session) CloseReason() string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if !s.closed {
		return ""
	}
	return s.reason
}

// idleFor reports how long the session has been idle; busy or closed
// sessions are never idle.
func (s *Session) idleFor(now time.Time) (time.Duration, bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.busy || s.closed {
		return 0, false
	}
	return now.Sub(s.lastUsed), true
}

func (s *Session) touch() {
	s.stateMu.Lock()
	s.lastUsed = time.Now()
	s.stateMu.Unlock()
}

// begin takes the command lock without queueing and flags the session
// busy. It fails with ErrBusy or ErrClosed.
func (s *Session) begin() error {
	if !s.cmdMu.TryLock() {
		return ErrBusy
	}
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		s.cmdMu.Unlock()
		return ErrClosed
	}
	s.busy = true
	s.lastUsed = time.Now()
	s.stateMu.Unlock()
	return nil
}

func (s *Session) end() {
	s.stateMu.Lock()
	s.busy = false
	s.lastUsed = time.Now()
	s.stateMu.Unlock()
	s.cmdMu.Unlock()
}

// Stop reasons: why a step or run command returned.
const (
	StopStep       = "step"       // the step count was reached
	StopHalt       = "halt"       // the program halted cleanly
	StopFault      = "fault"      // the machine faulted (State.Fault has the message)
	StopBreakpoint = "breakpoint" // execution reached an armed breakpoint
	StopBudget     = "budget"     // the run command's step budget ran out
	StopFuel       = "fuel"       // the session's instruction budget is exhausted
	StopCanceled   = "canceled"   // the command's context ended first
)

// State describes the machine after a command.
type State struct {
	Stopped      string // one of the Stop* reasons ("" for pure inspection commands)
	PC           uint32
	Halted       bool
	Fault        string // fault message when the machine stopped on an error
	Instructions uint64 // cumulative, session lifetime
	Cycles       uint64 // cumulative simulated cycles
	Steps        uint64 // instructions executed by THIS command
}

func (s *Session) state(stopped string, stepsBefore uint64) State {
	halted, herr := s.mach.Halted()
	st := State{
		Stopped:      stopped,
		PC:           s.mach.PC(),
		Halted:       halted,
		Instructions: s.mach.Instructions(),
		Cycles:       s.mach.Cycles(),
	}
	st.Steps = st.Instructions - stepsBefore
	if herr != nil {
		st.Fault = herr.Error()
	}
	return st
}

// Step executes exactly n instructions (n < 1 means 1), ignoring
// breakpoints — an explicit step always moves. It stops early on halt,
// fault, fuel exhaustion, or cancellation.
func (s *Session) Step(ctx context.Context, n uint64) (State, error) {
	if err := s.begin(); err != nil {
		return State{}, err
	}
	defer s.end()
	if n < 1 {
		n = 1
	}
	return s.run(ctx, n, false)
}

// Run executes until the program halts, faults, reaches an armed
// breakpoint, exhausts the session's fuel, or executes maxSteps
// instructions (maxSteps < 1 means no command budget beyond fuel). A
// session paused ON a breakpoint runs past it first.
func (s *Session) Run(ctx context.Context, maxSteps uint64) (State, error) {
	if err := s.begin(); err != nil {
		return State{}, err
	}
	defer s.end()
	if maxSteps < 1 {
		maxSteps = ^uint64(0)
	}
	return s.run(ctx, maxSteps, true)
}

// run is the shared command loop. With breakpoints armed it steps one
// instruction at a time (the check is a pre-execution PC probe, so the
// breakpoint instruction itself has not run when the command returns);
// with none it batches runChunk instructions between checks, which is
// what keeps run-until within a few percent of a free run.
func (s *Session) run(ctx context.Context, maxSteps uint64, honorBps bool) (State, error) {
	// Trace delivery is batched (obs.StreamSink); flushing on every
	// return path means a paused session has no undelivered events, so
	// stream snapshots reconcile exactly with what subscribers received.
	defer s.sink.Flush()
	if halted, _ := s.mach.Halted(); halted {
		return s.state(StopHalt, s.mach.Instructions()), nil
	}
	start := s.mach.Instructions()
	checkBps := honorBps && len(s.bps) > 0
	budgetStop := StopBudget
	if !honorBps {
		budgetStop = StopStep
	}
	for {
		executed := s.mach.Instructions() - start
		if executed >= maxSteps {
			return s.state(budgetStop, start), nil
		}
		if checkBps && executed > 0 {
			if _, hit := s.bps[s.mach.PC()]; hit {
				return s.state(StopBreakpoint, start), nil
			}
		}
		chunk := maxSteps - executed
		if checkBps {
			chunk = 1
		} else if chunk > runChunk {
			chunk = runChunk
		}
		halted, err := s.mach.RunSteps(chunk)
		s.sink.Flush() // per-chunk, so live subscribers stream during long runs
		switch {
		case err != nil && halted:
			return s.state(StopFault, start), nil
		case err != nil:
			// RunSteps only errors without halting on fuel exhaustion
			// (a wrapped fuel.ErrExhausted); the session stays inspectable.
			return s.state(StopFuel, start), nil
		case halted:
			return s.state(StopHalt, start), nil
		}
		if s.ctx.Err() != nil {
			return State{}, ErrClosed
		}
		if ctx.Err() != nil {
			return s.state(StopCanceled, start), nil
		}
	}
}

// AddBreakpoint arms a breakpoint at addr.
func (s *Session) AddBreakpoint(ctx context.Context, addr uint32) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	s.bps[addr] = struct{}{}
	return nil
}

// ClearBreakpoint disarms addr; clearing an unarmed address is a no-op.
func (s *Session) ClearBreakpoint(ctx context.Context, addr uint32) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	delete(s.bps, addr)
	return nil
}

// Breakpoints returns the armed addresses in ascending order.
func (s *Session) Breakpoints() ([]uint32, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	out := make([]uint32, 0, len(s.bps))
	for a := range s.bps {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ { // insertion sort; breakpoint sets are tiny
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, nil
}

// Symbol resolves a program symbol to its address (for breakpoints and
// memory reads addressed by name).
func (s *Session) Symbol(name string) (uint32, bool) { return s.symbol(name) }

// Registers returns the machine state plus the current window's
// register values (32 for RISC I, 16 for the baseline). Reads are
// side-effect-free: they never touch simulated statistics or state.
func (s *Session) Registers(ctx context.Context) (State, []uint32, error) {
	if err := s.begin(); err != nil {
		return State{}, nil, err
	}
	defer s.end()
	return s.state("", s.mach.Instructions()), s.mach.Registers(), nil
}

// ReadMemory returns n bytes at addr (n capped at MaxMemoryRead),
// bypassing simulated traffic statistics.
func (s *Session) ReadMemory(ctx context.Context, addr uint32, n int) ([]byte, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	if n < 1 {
		n = 4
	}
	if n > MaxMemoryRead {
		return nil, fmt.Errorf("session: read of %d bytes exceeds the %d-byte cap", n, MaxMemoryRead)
	}
	return s.mach.Mem().ReadBytes(addr, n)
}

package session

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"risc1/internal/cc"
	"risc1/internal/cpu"
	"risc1/internal/exec"
	"risc1/internal/machine"
	"risc1/internal/obs"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// fibSrc is a small but structurally rich program: recursion exercises
// call/return (and, deep enough, spill/refill) trace events alongside
// plain instructions.
const fibSrc = `
int result;
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { result = fib(8); return 0; }
`

// spinSrc never halts — the workload for fuel, busy, and stalled-
// subscriber tests.
const spinSrc = `int result; int main() { while (1) { result = result + 1; } return 0; }`

// testIDs keeps test-built session IDs unique — the Manager's table is
// keyed by ID, and two sessions sharing one would silently shadow each
// other.
var testIDs atomic.Uint64

func buildMachine(t testing.TB, name, src string, o machine.Options) (machine.Machine, machine.Program) {
	t.Helper()
	b, ok := machine.Lookup(name)
	if !ok {
		t.Fatalf("no backend named %q", name)
	}
	m, prog, err := exec.NewSims().NewMachine(context.Background(), b, src, o)
	if err != nil {
		t.Fatalf("building %s machine: %v", name, err)
	}
	return m, prog
}

func buildRISC(t testing.TB, src string, fuel uint64) *Session {
	t.Helper()
	m, prog := buildMachine(t, "risc1", src, machine.Options{Opt: 1, DelaySlots: true, Fuel: fuel})
	return New(fmt.Sprintf("test-risc-%d", testIDs.Add(1)), m, prog)
}

func buildVAX(t testing.TB, src string, fuel uint64) *Session {
	t.Helper()
	m, prog := buildMachine(t, "cisc", src, machine.Options{Opt: 1, Fuel: fuel})
	return New(fmt.Sprintf("test-vax-%d", testIDs.Add(1)), m, prog)
}

// collectSink gathers every event — the post-hoc reference side of the
// differential tests.
type collectSink struct{ evs []obs.Event }

func (c *collectSink) Emit(ev obs.Event) error { c.evs = append(c.evs, ev); return nil }
func (c *collectSink) Close() error            { return nil }

// drainAll reads a subscriber until its stream ends.
func drainAll(t *testing.T, sub *obs.Subscriber) []obs.Event {
	t.Helper()
	var evs []obs.Event
	for {
		ev, _, ok := sub.Next(context.Background())
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

// jsonLines marshals events the way both the SSE stream and the JSONL
// trace file do, so "same trace" means byte-identical wire form.
func jsonLines(t *testing.T, evs []obs.Event) []string {
	t.Helper()
	lines := make([]string, len(evs))
	for i, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal event %d: %v", i, err)
		}
		lines[i] = string(b)
	}
	return lines
}

// TestStepDifferentialRISC is the tentpole acceptance differential at
// the session layer: stepping a session instruction by instruction must
// produce the exact event sequence — same wire bytes — as one post-hoc
// traced run of the same program (the risc1-run -trace-out path).
func TestStepDifferentialRISC(t *testing.T) {
	for _, opt := range []int{0, 1} {
		// Session side: warm-started machine, stepped in mixed strides so
		// chunk boundaries land at arbitrary points.
		m, prog := buildMachine(t, "risc1", fibSrc, machine.Options{Opt: opt, DelaySlots: opt == 1})
		s := New("diff", m, prog)
		sub := s.Subscribe(1 << 20) // keep everything
		strides := []uint64{1, 1, 3, 7, 1, 64, 1}
		var st State
		for i := 0; ; i++ {
			var err error
			st, err = s.Step(context.Background(), strides[i%len(strides)])
			if err != nil {
				t.Fatalf("opt %d: step: %v", opt, err)
			}
			if st.Halted {
				break
			}
		}
		if st.Fault != "" {
			t.Fatalf("opt %d: faulted: %s", opt, st.Fault)
		}
		s.Close(CloseReasonClient)
		stepped := jsonLines(t, drainAll(t, sub))

		// Reference side: the plain traced-run prelude, no session layer.
		ref, _, _, err := cc.CompileRISC(fibSrc, cc.Options{Opt: opt, DelaySlots: opt == 1})
		if err != nil {
			t.Fatalf("opt %d: compile: %v", opt, err)
		}
		rc := cpu.New(cpu.Config{})
		rc.Reset(ref.Entry)
		if err := ref.LoadInto(rc.Mem); err != nil {
			t.Fatalf("opt %d: load: %v", opt, err)
		}
		sink := &collectSink{}
		rc.Obs = &obs.Observer{Tracer: obs.NewTracer(0, sink)}
		if err := rc.Run(); err != nil {
			t.Fatalf("opt %d: reference run: %v", opt, err)
		}
		free := jsonLines(t, sink.evs)

		if len(stepped) != len(free) {
			t.Fatalf("opt %d: stepped session emitted %d events, free run %d", opt, len(stepped), len(free))
		}
		for i := range free {
			if stepped[i] != free[i] {
				t.Fatalf("opt %d: event %d differs\n  stepped: %s\n  free:    %s", opt, i, stepped[i], free[i])
			}
		}
		if st.Instructions != rc.Trace.Instructions || st.Cycles != rc.Trace.Cycles {
			t.Errorf("opt %d: counters diverge: session %d/%d, free %d/%d",
				opt, st.Instructions, st.Cycles, rc.Trace.Instructions, rc.Trace.Cycles)
		}
	}
}

// TestStepDifferentialVAX is the CISC-baseline half of the differential.
func TestStepDifferentialVAX(t *testing.T) {
	m, prog := buildMachine(t, "cisc", fibSrc, machine.Options{Opt: 1})
	s := New("diff", m, prog)
	sub := s.Subscribe(1 << 20)
	for {
		st, err := s.Step(context.Background(), 5)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if st.Halted {
			break
		}
	}
	s.Close(CloseReasonClient)
	stepped := jsonLines(t, drainAll(t, sub))

	ref, _, _, err := cc.CompileVAX(fibSrc, cc.Options{Opt: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := vax.New(vax.Config{})
	rc.Reset(ref.Entry)
	if err := ref.LoadInto(rc.Mem); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	rc.Obs = &obs.Observer{Tracer: obs.NewTracer(0, sink)}
	if err := rc.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	free := jsonLines(t, sink.evs)
	if len(stepped) != len(free) {
		t.Fatalf("stepped session emitted %d events, free run %d", len(stepped), len(free))
	}
	for i := range free {
		if stepped[i] != free[i] {
			t.Fatalf("event %d differs\n  stepped: %s\n  free:    %s", i, stepped[i], free[i])
		}
	}
}

// TestStepDifferentialRV32 is the same differential on the third
// registered machine — the session layer never special-cases a backend.
func TestStepDifferentialRV32(t *testing.T) {
	m, prog := buildMachine(t, "rv32", fibSrc, machine.Options{Opt: 1})
	s := New("diff", m, prog)
	sub := s.Subscribe(1 << 20)
	for {
		st, err := s.Step(context.Background(), 5)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if st.Halted {
			break
		}
	}
	s.Close(CloseReasonClient)
	stepped := jsonLines(t, drainAll(t, sub))

	ref, _, _, err := cc.CompileRV32(fibSrc, cc.Options{Opt: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := rv32.New(rv32.Config{})
	rc.Reset(ref.Entry)
	if err := ref.LoadInto(rc.Mem); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	rc.Obs = &obs.Observer{Tracer: obs.NewTracer(0, sink)}
	if err := rc.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	free := jsonLines(t, sink.evs)
	if len(stepped) != len(free) {
		t.Fatalf("stepped session emitted %d events, free run %d", len(stepped), len(free))
	}
	for i := range free {
		if stepped[i] != free[i] {
			t.Fatalf("event %d differs\n  stepped: %s\n  free:    %s", i, stepped[i], free[i])
		}
	}
}

// TestRunUntilBreakpoint: run-until stops at an armed breakpoint with
// the breakpoint instruction not yet executed, a paused-on-breakpoint
// session runs PAST it on the next run, and clearing the breakpoint
// lets the program finish.
func TestRunUntilBreakpoint(t *testing.T) {
	s := buildRISC(t, fibSrc, 0)
	fib, ok := s.Symbol("fib")
	if !ok {
		t.Fatal("no fib symbol")
	}
	if err := s.AddBreakpoint(context.Background(), fib); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped != StopBreakpoint || st.PC != fib || st.Halted {
		t.Fatalf("first run: %+v, want stop %q at %#x", st, StopBreakpoint, fib)
	}
	instrsAtBp := st.Instructions

	// Paused on the breakpoint: the next run must move (fib recurses, so
	// it stops at fib again, strictly later).
	st, err = s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped != StopBreakpoint || st.PC != fib {
		t.Fatalf("second run: %+v, want another %q stop", st, StopBreakpoint)
	}
	if st.Instructions <= instrsAtBp {
		t.Fatal("run from a breakpoint did not execute anything")
	}

	if bps, err := s.Breakpoints(); err != nil || len(bps) != 1 || bps[0] != fib {
		t.Fatalf("breakpoints = %v, %v", bps, err)
	}
	if err := s.ClearBreakpoint(context.Background(), fib); err != nil {
		t.Fatal(err)
	}
	st, err = s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped != StopHalt || !st.Halted {
		t.Fatalf("final run: %+v, want clean halt", st)
	}
}

// TestInspection: register and memory reads return real machine state
// and never perturb it (the trace stream sees nothing from them).
func TestInspection(t *testing.T) {
	s := buildRISC(t, fibSrc, 0)
	sub := s.Subscribe(1 << 20)
	st, err := s.Run(context.Background(), 0)
	if err != nil || !st.Halted {
		t.Fatalf("run: %+v, %v", st, err)
	}
	evsBefore := s.StreamStats().Events

	_, regs, err := s.Registers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 32 {
		t.Fatalf("RISC register read returned %d values, want 32", len(regs))
	}
	addr, ok := s.Symbol("result")
	if !ok {
		t.Fatal("no result symbol")
	}
	b, err := s.ReadMemory(context.Background(), addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(b); got != 21 { // fib(8)
		t.Errorf("result = %d, want 21", got)
	}
	if _, err := s.ReadMemory(context.Background(), addr, MaxMemoryRead+1); err == nil {
		t.Error("oversized memory read did not fail")
	}
	if after := s.StreamStats().Events; after != evsBefore {
		t.Errorf("inspection emitted %d trace events", after-evsBefore)
	}
	s.Close(CloseReasonClient)
	drainAll(t, sub)
}

// TestFuelExhaustion: running out of the session's instruction budget
// pauses the session (StopFuel) instead of killing it — it stays fully
// inspectable.
func TestFuelExhaustion(t *testing.T) {
	s := buildRISC(t, spinSrc, 500)
	st, err := s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped != StopFuel || st.Halted {
		t.Fatalf("state %+v, want %q pause", st, StopFuel)
	}
	if st.Instructions != 500 {
		t.Errorf("executed %d instructions, want exactly the 500 fuel", st.Instructions)
	}
	if _, _, err := s.Registers(context.Background()); err != nil {
		t.Errorf("fuel-exhausted session not inspectable: %v", err)
	}
}

// TestBusyAndClosed: a second command while one runs fails fast with
// ErrBusy; Close interrupts the in-flight run; commands after Close
// fail with ErrClosed; OnClose fires exactly once.
func TestBusyAndClosed(t *testing.T) {
	s := buildRISC(t, spinSrc, 1<<30)
	closes := 0
	s.OnClose = func() { closes++ }

	// Commands TryLock, so the probe steps below can hold the lock at
	// the instant the run starts; the run is then itself refused
	// ErrBusy and must start again until it holds the lock, or no probe
	// would ever see it busy.
	runDone := make(chan error, 1)
	go func() {
		for {
			_, err := s.Run(context.Background(), 0)
			if !errors.Is(err, ErrBusy) {
				runDone <- err
				return
			}
		}
	}()

	// Wait until the run actually holds the command lock.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Step(context.Background(), 1); errors.Is(err, ErrBusy) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never became busy")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Registers(context.Background()); !errors.Is(err, ErrBusy) {
		t.Errorf("Registers during run = %v, want ErrBusy", err)
	}

	s.Close(CloseReasonClient)
	s.Close(CloseReasonDrain) // second close: no-op, reason stays
	if err := <-runDone; !errors.Is(err, ErrClosed) {
		t.Errorf("interrupted run = %v, want ErrClosed", err)
	}
	if _, err := s.Step(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Errorf("step after close = %v, want ErrClosed", err)
	}
	if closes != 1 {
		t.Errorf("OnClose fired %d times, want 1", closes)
	}
	if r := s.CloseReason(); r != CloseReasonClient {
		t.Errorf("close reason %q, want %q", r, CloseReasonClient)
	}
}

// TestStalledSubscriberSession is the slow-subscriber contract at the
// session layer (satellite 3's unit half): with a subscriber that never
// reads, the simulator still executes its full budget, the drop counter
// is monotone, and after the fact the survived events are exactly the
// freshest ring's worth with gap-exact sequence numbers.
func TestStalledSubscriberSession(t *testing.T) {
	const ring = 64
	const fuel = 50000
	s := buildRISC(t, spinSrc, fuel)
	sub := s.Subscribe(ring)

	st, err := s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stopped != StopFuel || st.Instructions != fuel {
		t.Fatalf("stalled subscriber perturbed the run: %+v", st)
	}

	total := s.StreamStats().Events
	if total < fuel {
		t.Fatalf("only %d events for %d instructions", total, fuel)
	}
	wantDropped := total - ring
	if d := sub.Dropped(); d != wantDropped {
		t.Fatalf("dropped %d, want %d", d, wantDropped)
	}
	s.Close(CloseReasonClient)

	var lastSeq uint64
	lastDropped, n := uint64(0), 0
	for {
		ev, dropped, ok := sub.Next(context.Background())
		if !ok {
			break
		}
		if dropped < lastDropped {
			t.Fatalf("drop counter fell %d -> %d", lastDropped, dropped)
		}
		if n > 0 && ev.Seq != lastSeq+1 {
			t.Fatalf("post-stall drain not gapless: seq %d after %d", ev.Seq, lastSeq)
		}
		if n == 0 && ev.Seq != dropped {
			t.Fatalf("first survivor seq %d != cumulative drops %d", ev.Seq, dropped)
		}
		lastSeq, lastDropped = ev.Seq, dropped
		n++
	}
	if n != ring {
		t.Fatalf("drained %d events, want the ring's %d", n, ring)
	}
	if lastSeq != total-1 {
		t.Errorf("freshest survivor seq %d, want %d", lastSeq, total-1)
	}
}

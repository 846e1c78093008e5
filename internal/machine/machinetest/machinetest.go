// Package machinetest is the registry conformance suite: the behavioral
// contract every registered backend must satisfy beyond compiling. Run
// drives one backend through the properties the execution layers above
// the registry rely on — deterministic replay, snapshot/restore
// identity, fuel and cancellation semantics, report schema — so a new
// machine that registers and passes this suite works end-to-end through
// batch execution, warm-start, debug sessions, and the HTTP service
// without those layers growing machine-specific code.
package machinetest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"risc1/internal/fuel"
	"risc1/internal/machine"
	"risc1/internal/predecode"
)

// src is the conformance workload: calls, a loop, and a global store,
// exercising each backend's calling convention. It leaves 55 in result.
const src = `
int result;
int add(int a, int b) { return a + b; }
int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) {
		s = s + add(i, 1);
	}
	result = s;
	return 0;
}
`

const want = 55

// spinSrc never halts — the fuel and cancellation probes.
const spinSrc = `
int result;
int main() {
	int i;
	i = 0;
	while (i < 2) { i = 0; }
	result = i;
	return 0;
}
`

// fibSrc is a second, different program for the image-alternation
// probe. It leaves 55 in result.
const fibSrc = `
int result;
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() {
	result = fib(10);
	return 0;
}
`

// smcSrc stores the low byte of val at the address patch between two
// calls of f; with patch aimed into f, the second call runs patched
// code. The host pokes both globals before the run.
const smcSrc = `
int result;
char *patch;
int val;
int scratch;
int f(int x) { return x + 3; }
int main() {
	int s;
	s = f(1);
	*patch = val;
	s = s * 1000 + f(2);
	result = s;
	return 0;
}
`

// faultSrc loads through bad, which the host aims outside memory, so
// the run faults while evaluating an instruction's operands.
const faultSrc = `
int result;
int *bad;
int main() {
	int a;
	a = 5;
	result = a + *bad;
	return 0;
}
`

// outcome is everything a run leaves observable.
type outcome struct {
	err, haltErr string
	halted       bool
	pc           uint32
	regs         []uint32
	report       []byte
}

// Run checks b against the backend contract.
func Run(t *testing.T, b *machine.Backend) {
	t.Helper()

	compile := func(t *testing.T, source string, o machine.Options) machine.Program {
		t.Helper()
		prog, text, _, err := b.Compile(source, o)
		if err != nil {
			t.Fatalf("%s: compile: %v\n%s", b.Name, err, text)
		}
		return prog
	}
	load := func(t *testing.T, m machine.Machine, prog machine.Program) {
		t.Helper()
		m.Reset(prog.Entry())
		if err := prog.LoadInto(m.Mem()); err != nil {
			t.Fatalf("%s: load: %v", b.Name, err)
		}
	}
	result := func(t *testing.T, m machine.Machine, prog machine.Program) int32 {
		t.Helper()
		addr, ok := prog.Symbol("result")
		if !ok {
			t.Fatalf("%s: program has no result symbol", b.Name)
		}
		v, err := m.Mem().LoadWord(addr)
		if err != nil {
			t.Fatalf("%s: read result: %v", b.Name, err)
		}
		return int32(v)
	}
	reportJSON := func(t *testing.T, m machine.Machine) []byte {
		t.Helper()
		rep := m.BuildReport("conformance")
		b.ScrubReport(&rep)
		j, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: report JSON: %v", b.Name, err)
		}
		return j
	}

	observe := func(t *testing.T, m machine.Machine, runErr error) outcome {
		t.Helper()
		o := outcome{pc: m.PC(), regs: m.Registers(), report: reportJSON(t, m)}
		if runErr != nil {
			o.err = runErr.Error()
		}
		var herr error
		if o.halted, herr = m.Halted(); herr != nil {
			o.haltErr = herr.Error()
		}
		return o
	}
	poke := func(t *testing.T, m machine.Machine, prog machine.Program, sym string, v uint32) {
		t.Helper()
		addr, ok := prog.Symbol(sym)
		if !ok {
			t.Fatalf("%s: program has no %s symbol", b.Name, sym)
		}
		if err := m.Mem().WriteBytes(addr, []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}); err != nil {
			t.Fatalf("%s: poke %s: %v", b.Name, sym, err)
		}
	}

	t.Run("determinism", func(t *testing.T) {
		// Two fresh machines over the same program must agree byte for
		// byte — the property every cache layer and differential test
		// upstream assumes.
		var first []byte
		for i := 0; i < 2; i++ {
			prog := compile(t, src, machine.Options{Opt: 1})
			m := b.New(machine.Options{Opt: 1})
			load(t, m, prog)
			if err := m.RunContext(context.Background()); err != nil {
				t.Fatalf("%s: run: %v", b.Name, err)
			}
			if got := result(t, m, prog); got != want {
				t.Fatalf("%s: result = %d, want %d", b.Name, got, want)
			}
			j := reportJSON(t, m)
			if first == nil {
				first = j
			} else if !bytes.Equal(first, j) {
				t.Errorf("%s: reports differ across identical fresh runs", b.Name)
			}
		}
	})

	t.Run("snapshot-restore", func(t *testing.T) {
		// A run replayed from a post-load snapshot must be
		// indistinguishable from the original — warm-start correctness.
		prog := compile(t, src, machine.Options{})
		m := b.New(machine.Options{})
		load(t, m, prog)
		snap := m.Snapshot()
		defer snap.Release()
		if snap.Instructions() != 0 {
			t.Errorf("%s: post-load snapshot instructions = %d, want 0", b.Name, snap.Instructions())
		}
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatalf("%s: cold run: %v", b.Name, err)
		}
		cold := reportJSON(t, m)
		coldVal := result(t, m, prog)

		m.Restore(snap)
		if h, _ := m.Halted(); h {
			t.Fatalf("%s: restored machine reports halted", b.Name)
		}
		if m.Instructions() != 0 {
			t.Errorf("%s: restored instructions = %d, want 0", b.Name, m.Instructions())
		}
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatalf("%s: warm run: %v", b.Name, err)
		}
		if !bytes.Equal(cold, reportJSON(t, m)) {
			t.Errorf("%s: warm report differs from cold", b.Name)
		}
		if got := result(t, m, prog); got != coldVal {
			t.Errorf("%s: warm result = %d, cold %d", b.Name, got, coldVal)
		}
	})

	t.Run("fuel", func(t *testing.T) {
		// Every backend runs under the one fuel driver. Exhausting the
		// budget fails with a wrapped fuel.ErrExhausted after exactly
		// the budget's instructions — also when it is not a multiple of
		// the context-check quantum — names the limit and the pc, and
		// leaves the machine unhalted (inspectable). The predecode
		// cache must not move the stopping point by one instruction.
		for _, mode := range cacheModes {
			o := mode.opts
			t.Run(mode.name, func(t *testing.T) {
				spin := compile(t, spinSrc, o)
				exhausted := func(t *testing.T, m machine.Machine, err error, limit uint64) {
					t.Helper()
					if !errors.Is(err, fuel.ErrExhausted) {
						t.Fatalf("%s: fuel %d: err = %v, want wrapped fuel.ErrExhausted", b.Name, limit, err)
					}
					if got := m.Instructions(); got != limit {
						t.Errorf("%s: fuel %d: executed %d instructions", b.Name, limit, got)
					}
					msg := fmt.Sprintf(`^[a-z0-9]+: instruction limit exceeded: limit %d at pc %#08x$`, limit, m.PC())
					if !regexp.MustCompile(msg).MatchString(err.Error()) {
						t.Errorf("%s: fuel message %q, want %s", b.Name, err, msg)
					}
					if h, _ := m.Halted(); h {
						t.Errorf("%s: fuel exhaustion halted the machine", b.Name)
					}
				}
				for _, limit := range []uint64{64, fuel.Quantum + 37} {
					m := b.New(fueled(o, limit))
					load(t, m, spin)
					exhausted(t, m, m.RunContext(context.Background()), limit)
				}

				// RunSteps: a budget that ends on the limit is no error; the
				// next instruction is. A budget across the limit stops at it.
				m := b.New(fueled(o, 64))
				load(t, m, spin)
				for _, n := range []uint64{40, 24} {
					if halted, err := m.RunSteps(n); halted || err != nil {
						t.Fatalf("%s: RunSteps(%d) = (%v, %v), want (false, nil)", b.Name, n, halted, err)
					}
				}
				if got := m.Instructions(); got != 64 {
					t.Fatalf("%s: RunSteps(40)+RunSteps(24) executed %d, want 64", b.Name, got)
				}
				_, err := m.RunSteps(1)
				exhausted(t, m, err, 64)
				m = b.New(fueled(o, 64))
				load(t, m, spin)
				m.RunSteps(40)
				_, err = m.RunSteps(40)
				exhausted(t, m, err, 64)

				// SetMaxInstructions re-arms the budget on the same machine;
				// zero restores the default (fuel_test pins its value).
				m.SetMaxInstructions(100)
				exhausted(t, m, m.RunContext(context.Background()), 100)
				m.SetMaxInstructions(0)
				if halted, err := m.RunSteps(fuel.Quantum); halted || err != nil {
					t.Errorf("%s: after SetMaxInstructions(0): (%v, %v), want (false, nil)", b.Name, halted, err)
				}

				// A halt on the last unit of fuel is a clean halt; one unit
				// less is exhaustion.
				prog := compile(t, src, o)
				m = b.New(o)
				load(t, m, prog)
				if err := m.RunContext(context.Background()); err != nil {
					t.Fatalf("%s: run: %v", b.Name, err)
				}
				need := m.Instructions()
				m = b.New(fueled(o, need))
				load(t, m, prog)
				if err := m.RunContext(context.Background()); err != nil {
					t.Errorf("%s: halt on the last unit of fuel %d: %v", b.Name, need, err)
				}
				m = b.New(fueled(o, need-1))
				load(t, m, prog)
				exhausted(t, m, m.RunContext(context.Background()), need-1)
			})
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		// A cancelled context stops the run on an instruction boundary
		// with the context's error; the machine stays resumable.
		prog := compile(t, spinSrc, machine.Options{})
		m := b.New(machine.Options{})
		load(t, m, prog)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run err = %v, want context.Canceled", b.Name, err)
		}
		if got := m.Instructions(); got != 0 {
			t.Errorf("%s: cancelled context executed %d instructions, want 0", b.Name, got)
		}
		if h, _ := m.Halted(); h {
			t.Errorf("%s: cancellation halted the machine", b.Name)
		}
		if halted, err := m.RunSteps(16); halted || err != nil {
			t.Errorf("%s: resume after cancel = (%v, %v), want (false, nil)", b.Name, halted, err)
		}
	})

	t.Run("expired-context", func(t *testing.T) {
		// A context that is already past its deadline must return
		// promptly — before ANY instruction executes — with the
		// canonical context error, leave the machine unhalted, and leave
		// its state restorable. The serving path leans on this: a
		// request whose deadline elapsed while queued must not burn a
		// quantum of simulation before noticing.
		prog := compile(t, spinSrc, machine.Options{})
		m := b.New(machine.Options{})
		load(t, m, prog)
		snap := m.Snapshot()
		defer snap.Release()

		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if err := m.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: expired run err = %v, want context.DeadlineExceeded", b.Name, err)
		}
		if got := m.Instructions(); got != 0 {
			t.Errorf("%s: expired context executed %d instructions, want 0", b.Name, got)
		}
		if h, _ := m.Halted(); h {
			t.Errorf("%s: expired context halted the machine", b.Name)
		}

		// The machine is still whole: restore the post-load snapshot and
		// step it.
		m.Restore(snap)
		if halted, err := m.RunSteps(16); halted || err != nil {
			t.Errorf("%s: restored run after expiry = (%v, %v), want (false, nil)", b.Name, halted, err)
		}
		if got := m.Instructions(); got != 16 {
			t.Errorf("%s: restored machine executed %d instructions, want 16", b.Name, got)
		}
	})

	t.Run("midrun-cancellation", func(t *testing.T) {
		// Cancellation arriving while the guest is executing stops the
		// run on a quantum boundary with the context's error — the
		// cooperative-interrupt path debug sessions and drain use. The
		// spin program never halts, so RunContext returns only because
		// of the cancel.
		prog := compile(t, spinSrc, machine.Options{})
		m := b.New(machine.Options{})
		load(t, m, prog)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- m.RunContext(ctx) }()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: mid-run cancel err = %v, want context.Canceled", b.Name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: RunContext did not return after cancellation", b.Name)
		}
		// No lower bound on Instructions: on a heavily loaded host the
		// cancel can land before the first quantum, which is the
		// expired-context path above — still correct, just not mid-run.
		if h, _ := m.Halted(); h {
			t.Errorf("%s: mid-run cancel halted the machine", b.Name)
		}
		if halted, err := m.RunSteps(16); halted || err != nil {
			t.Errorf("%s: resume after mid-run cancel = (%v, %v), want (false, nil)", b.Name, halted, err)
		}
	})

	t.Run("report-schema", func(t *testing.T) {
		prog := compile(t, src, machine.Options{Opt: 1})
		m := b.New(machine.Options{Opt: 1})
		load(t, m, prog)
		if err := m.RunContext(context.Background()); err != nil {
			t.Fatalf("%s: run: %v", b.Name, err)
		}
		rep := m.BuildReport("conformance")
		if rep.Machine != b.Name {
			t.Errorf("%s: report machine = %q, want the canonical name", b.Name, rep.Machine)
		}
		if rep.Totals.Instructions == 0 || rep.Totals.Cycles == 0 {
			t.Errorf("%s: empty totals %+v", b.Name, rep.Totals)
		}
		if rep.Totals.CPI < 1 {
			t.Errorf("%s: CPI %v < 1", b.Name, rep.Totals.CPI)
		}
		if m.Instructions() != rep.Totals.Instructions || m.Cycles() != rep.Totals.Cycles {
			t.Errorf("%s: machine counters disagree with report totals", b.Name)
		}
		if m.Micros() <= 0 {
			t.Errorf("%s: Micros = %v", b.Name, m.Micros())
		}
		if _, err := rep.JSON(); err != nil {
			t.Errorf("%s: report JSON: %v", b.Name, err)
		}
	})

	t.Run("interface-surface", func(t *testing.T) {
		prog := compile(t, src, machine.Options{})
		if prog.TextBytes() <= 0 {
			t.Errorf("%s: TextBytes = %d", b.Name, prog.TextBytes())
		}
		if prog.Footprint() <= 0 {
			t.Errorf("%s: Footprint = %d", b.Name, prog.Footprint())
		}
		if len(prog.SortedSymbols()) == 0 {
			t.Errorf("%s: no symbols", b.Name)
		}
		m := b.New(machine.Options{})
		if len(m.Registers()) == 0 {
			t.Errorf("%s: no registers", b.Name)
		}
		if b.CycleNS <= 0 {
			t.Errorf("%s: CycleNS = %v", b.Name, b.CycleNS)
		}
		// Normalize must be idempotent and keep the fields every
		// backend honors.
		o := machine.Options{Opt: 1, DelaySlots: true, Windows: 4, NoWindows: true, NoICache: true, MemSize: 1 << 16, Fuel: 99}
		n := b.Normalize(o)
		if b.Normalize(n) != n {
			t.Errorf("%s: Normalize is not idempotent", b.Name)
		}
		if n.Opt != o.Opt || n.MemSize != o.MemSize || n.Fuel != o.Fuel {
			t.Errorf("%s: Normalize dropped a universal field: %+v", b.Name, n)
		}
	})

	t.Run("icache-self-modifying", func(t *testing.T) {
		// A guest store over code that already ran must reach that
		// code's next execution. Patch each of f's first bytes in turn,
		// with two values each: every outcome — result, fault, pc,
		// registers, report — must be identical with the predecode
		// cache on and off, and some patch must change the outcome, so
		// the probe reaches patched code.
		prog := compile(t, smcSrc, machine.Options{})
		f, _ := prog.Symbol("f")
		scratch, _ := prog.Symbol("scratch")
		run := func(o machine.Options, at uint32, v byte) outcome {
			m := b.New(fueled(o, 1<<16))
			load(t, m, prog)
			poke(t, m, prog, "patch", at)
			poke(t, m, prog, "val", uint32(v))
			return observe(t, m, m.RunContext(context.Background()))
		}
		base := run(machine.Options{}, scratch, 0)
		m := b.New(machine.Options{})
		load(t, m, prog)
		code, err := m.Mem().ReadBytes(f, 24)
		if err != nil {
			t.Fatal(err)
		}
		changed := 0
		for k, orig := range code {
			for _, v := range []byte{orig ^ 0x01, orig ^ 0x40} {
				on := run(cacheModes[0].opts, f+uint32(k), v)
				off := run(cacheModes[1].opts, f+uint32(k), v)
				if !reflect.DeepEqual(on, off) {
					t.Errorf("%s: byte f+%d := %#02x: icache run (err %q, halt %q, pc %#x) differs from nocache (err %q, halt %q, pc %#x)",
						b.Name, k, v, on.err, on.haltErr, on.pc, off.err, off.haltErr, off.pc)
				}
				if !reflect.DeepEqual(on, base) {
					changed++
				}
			}
		}
		if changed == 0 {
			t.Errorf("%s: no patch of f changed the run", b.Name)
		}
	})

	t.Run("icache-load-fault", func(t *testing.T) {
		// A load fault part-way through an instruction leaves the same
		// fault text, pc, registers and report — instruction-stream
		// byte count included — with the cache on and off.
		prog := compile(t, faultSrc, machine.Options{})
		var outs []outcome
		for _, mode := range cacheModes {
			m := b.New(mode.opts)
			load(t, m, prog)
			poke(t, m, prog, "bad", 0xfffffff0)
			outs = append(outs, observe(t, m, m.RunContext(context.Background())))
		}
		if !strings.Contains(outs[0].haltErr, "address out of range") {
			t.Errorf("%s: halt error %q, want a load fault", b.Name, outs[0].haltErr)
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("%s: load fault differs: icache %q at pc %#x, nocache %q at pc %#x",
				b.Name, outs[0].haltErr, outs[0].pc, outs[1].haltErr, outs[1].pc)
		}
	})

	t.Run("icache-fork-concurrent", func(t *testing.T) {
		// A fork taken mid-run from a warm machine, its predecoded code
		// cloned, runs concurrently with its parent — the race detector
		// watches the two caches — and both finish exactly like an
		// uninterrupted run.
		prog := compile(t, src, machine.Options{})
		for _, mode := range cacheModes {
			ref := b.New(mode.opts)
			load(t, ref, prog)
			whole := observe(t, ref, ref.RunContext(context.Background()))

			m := b.New(mode.opts)
			load(t, m, prog)
			if _, err := m.RunSteps(40); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			ms := []machine.Machine{m, m.Fork()}
			errs := make([]error, len(ms))
			var wg sync.WaitGroup
			for i, x := range ms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = x.RunContext(context.Background())
				}()
			}
			wg.Wait()
			for i, x := range ms {
				if got := observe(t, x, errs[i]); !reflect.DeepEqual(got, whole) {
					t.Errorf("%s %s: machine %d of parent/fork diverged from the uninterrupted run (err %q)", b.Name, mode.name, i, got.err)
				}
				if got := result(t, x, prog); got != want {
					t.Errorf("%s %s: machine %d result = %d, want %d", b.Name, mode.name, i, got, want)
				}
			}
		}
	})

	t.Run("icache-restore-reuses-pages", func(t *testing.T) {
		// A pooled worker restores a different warm image on almost
		// every request. Restore clears predecoded pages in place, so
		// once both images' code has run, alternating them allocates no
		// further cache page; building an image, which never steps,
		// allocates none at all.
		type probe interface{ ICacheStats() predecode.Stats }
		var snaps []machine.Snapshot
		for _, source := range []string{src, fibSrc} {
			prog := compile(t, source, machine.Options{})
			scratch := b.New(machine.Options{})
			load(t, scratch, prog)
			p, ok := machine.Unwrap(scratch).(probe)
			if !ok {
				t.Skipf("%s: no predecode cache to probe", b.Name)
			}
			snap := scratch.Snapshot()
			defer snap.Release()
			if pages := p.ICacheStats().Pages; pages != 0 {
				t.Errorf("%s: building an image allocated %d cache pages", b.Name, pages)
			}
			snaps = append(snaps, snap)
		}
		m := b.New(machine.Options{})
		p := machine.Unwrap(m).(probe)
		round := func() {
			for _, s := range snaps {
				m.Restore(s)
				if err := m.RunContext(context.Background()); err != nil {
					t.Fatalf("%s: run: %v", b.Name, err)
				}
			}
		}
		round()
		before := p.ICacheStats()
		for i := 0; i < 3; i++ {
			round()
		}
		after := p.ICacheStats()
		if after.Pages != before.Pages {
			t.Errorf("%s: alternating two warm images grew the cache from %d to %d pages", b.Name, before.Pages, after.Pages)
		}
		if after.Fills <= before.Fills || after.Hits <= before.Hits {
			t.Errorf("%s: cache not exercised across restores: %+v -> %+v", b.Name, before, after)
		}
	})
}

// cacheModes are the two settings of the host-side predecode cache;
// every simulated observable must be identical under both.
var cacheModes = []struct {
	name string
	opts machine.Options
}{{"icache", machine.Options{}}, {"nocache", machine.Options{NoICache: true}}}

// fueled returns o with the instruction budget n.
func fueled(o machine.Options, n uint64) machine.Options {
	o.Fuel = n
	return o
}

package cc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"risc1/internal/cc/progen"
	"risc1/internal/cpu"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// The differential fuzz tests draw random well-typed MiniC programs
// from the shared corpus generator (internal/cc/progen), evaluate them
// in Go with int32 semantics, and check that all three code generators
// (and the delay-slot optimizer) compute the same value on their
// simulators. This is the strongest single correctness property in the
// repository: it exercises the parser, checker, every code generator,
// assembler and simulator, and the RISC multiply/divide runtime
// together. The same generator feeds internal/exec's pool-level
// differential test, which re-checks the property under concurrency.

// fuzzOptions covers both optimization levels, with the delay-slot
// optimizer on at -O1 — the corners the differential property must
// hold across.
var fuzzOptions = []Options{
	{Opt: 0},
	{Opt: 1, DelaySlots: true},
}

func runRiscResult(src string, o Options) (int32, error) {
	prog, text, _, err := CompileRISC(src, o)
	if err != nil {
		return 0, fmt.Errorf("%w\n%s", err, text)
	}
	c := cpu.New(cpu.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		return 0, err
	}
	if err := c.Run(); err != nil {
		return 0, fmt.Errorf("%w\n%s", err, text)
	}
	addr, _ := prog.Symbol("result")
	v, err := c.Mem.LoadWord(addr)
	return int32(v), err
}

func runVaxResult(src string, o Options) (int32, error) {
	prog, text, _, err := CompileVAX(src, o)
	if err != nil {
		return 0, fmt.Errorf("%w\n%s", err, text)
	}
	c := vax.New(vax.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		return 0, err
	}
	if err := c.Run(); err != nil {
		return 0, fmt.Errorf("%w\n%s", err, text)
	}
	addr, _ := prog.Symbol("result")
	v, err := c.Mem.LoadWord(addr)
	return int32(v), err
}

func runRV32Result(src string, o Options) (int32, error) {
	prog, text, _, err := CompileRV32(src, o)
	if err != nil {
		return 0, fmt.Errorf("%w\n%s", err, text)
	}
	c := rv32.New(rv32.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		return 0, err
	}
	if err := c.Run(); err != nil {
		return 0, fmt.Errorf("%w\n%s", err, text)
	}
	addr, _ := prog.Symbol("result")
	v, err := c.Mem.LoadWord(addr)
	return int32(v), err
}

// fuzzMachines are the simulators every generated program runs on.
var fuzzMachines = []struct {
	name string
	run  func(src string, o Options) (int32, error)
}{{"risc", runRiscResult}, {"vax", runVaxResult}, {"rv32", runRV32Result}}

// checkDifferential runs one generated program through every
// (machine, options) corner and reports the first disagreement.
func checkDifferential(t *testing.T, seed int64, src string, want int32) bool {
	t.Helper()
	for _, o := range fuzzOptions {
		for _, m := range fuzzMachines {
			got, err := m.run(src, o)
			if err != nil {
				t.Logf("seed %d %s (%+v): %v\nsource:%s", seed, m.name, o, err, src)
				return false
			}
			if got != want {
				t.Logf("seed %d %s (%+v): got %d, want %d\nsource:%s", seed, m.name, o, got, want, src)
				return false
			}
		}
	}
	return true
}

func TestExpressionFuzz(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 10
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, want := progen.ExprProgram(r)
		return checkDifferential(t, seed, src, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// TestStatementFuzz drives randomized loop/condition programs: a small
// state machine whose Go mirror must agree after a bounded number of
// iterations.
func TestStatementFuzz(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 6
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, want := progen.LoopProgram(r)
		return checkDifferential(t, seed, src, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// TestCallFuzz drives the call-heavy corpus: random recursive programs
// that exercise the register-window machinery on the RISC side, the
// CALLS/RET frames on the baseline and the saved s-registers on RV32.
func TestCallFuzz(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 6
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, want := progen.CallProgram(r)
		return checkDifferential(t, seed, src, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

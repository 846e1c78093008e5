package cpu

import (
	"fmt"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/isa"
)

// selfModifyingSrc runs a three-iteration loop whose body instruction is
// patched at runtime: iteration one executes "add r2, r2, 1", then the
// program stores a freshly encoded "add r2, r2, 5" over it, so later
// iterations must see the new instruction. Final r2 = 1 + 5 + 5 = 11;
// a stale instruction cache would compute 3.
func selfModifyingSrc(t *testing.T) string {
	t.Helper()
	word, err := (isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 2, Imm: true, Imm13: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`
main:	add r2, r0, 0
	add r3, r0, 0
	li r4, %d
	li r5, target
loop:
target:	add r2, r2, 1	; patched to "add r2, r2, 5" after iteration 1
	add r3, r3, 1
	stl r4, r5, 0
	sub. r0, r3, 3
	blt loop
	nop
	ret
	nop
`, int32(word))
}

func TestSelfModifyingCodeInvalidatesICache(t *testing.T) {
	src := selfModifyingSrc(t)
	c := run(t, src, Config{})
	if got := c.Regs.Get(2); got != 11 {
		t.Errorf("r2 = %d, want 11 (store over cached code must invalidate)", got)
	}
	st := c.ICacheStats()
	if st.Fills == 0 {
		t.Error("expected icache fills")
	}
	if st.Invalidations == 0 {
		t.Error("expected icache invalidations from the code patch")
	}
}

// TestSelfModifyingCodeDeterminism checks the tentpole invariant on the
// nastiest input: simulated cycles, instructions, and results must be
// identical with the cache on and off even while the program rewrites
// itself under the cache.
func TestSelfModifyingCodeDeterminism(t *testing.T) {
	src := selfModifyingSrc(t)
	on := run(t, src, Config{})
	off := run(t, src, Config{NoICache: true})
	if on.Trace.Cycles != off.Trace.Cycles {
		t.Errorf("cycles diverge: icache %d, nocache %d", on.Trace.Cycles, off.Trace.Cycles)
	}
	if on.Trace.Instructions != off.Trace.Instructions {
		t.Errorf("instructions diverge: icache %d, nocache %d", on.Trace.Instructions, off.Trace.Instructions)
	}
	if on.Stats != off.Stats {
		t.Errorf("stats diverge:\nicache  %+v\nnocache %+v", on.Stats, off.Stats)
	}
	for r := uint8(0); r < 32; r++ {
		if on.Regs.Get(r) != off.Regs.Get(r) {
			t.Errorf("r%d diverges: %#x vs %#x", r, on.Regs.Get(r), off.Regs.Get(r))
		}
	}
}

func TestNoICacheDisablesCache(t *testing.T) {
	c := run(t, fibSrc, Config{NoICache: true})
	if got := c.Regs.Get(1); got != 144 {
		t.Errorf("fib(12) without icache = %d, want 144", got)
	}
	if st := c.ICacheStats(); st != (ICacheStats{}) {
		t.Errorf("NoICache run recorded cache activity: %+v", st)
	}
}

// TestICacheDeterminismFib compares every observable of a recursive,
// spill-heavy run (window traps store to memory, which exercises the
// OnStore hook) with the cache on and off.
func TestICacheDeterminismFib(t *testing.T) {
	for _, cfg := range []Config{{Windows: 2}, {Windows: 8}} {
		off := cfg
		off.NoICache = true
		a, b := run(t, fibSrc, cfg), run(t, fibSrc, off)
		if a.Trace.Cycles != b.Trace.Cycles || a.Trace.Instructions != b.Trace.Instructions {
			t.Errorf("windows=%d: cycles/instructions diverge: %d/%d vs %d/%d",
				cfg.Windows, a.Trace.Cycles, a.Trace.Instructions, b.Trace.Cycles, b.Trace.Instructions)
		}
		if a.Stats != b.Stats {
			t.Errorf("windows=%d: stats diverge:\nicache  %+v\nnocache %+v", cfg.Windows, a.Stats, b.Stats)
		}
		if a.Regs.Get(1) != b.Regs.Get(1) {
			t.Errorf("windows=%d: results diverge: %d vs %d", cfg.Windows, a.Regs.Get(1), b.Regs.Get(1))
		}
	}
}

// TestICacheFaultParity: a program that jumps into garbage must fault
// with the same diagnostic whether or not the bad word was reached
// through the cache path.
func TestICacheFaultParity(t *testing.T) {
	src := `
main:	jmp alw, r0, 64		; jump to a zeroed word (illegal opcode 0)
	nop
`
	for _, cfg := range []Config{{}, {NoICache: true}} {
		prog, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := New(cfg)
		c.Reset(prog.Entry)
		prog.LoadInto(c.Mem)
		err = c.Run()
		if err == nil {
			t.Fatalf("cfg %+v: expected illegal-opcode fault", cfg)
		}
	}
}

// BenchmarkStepICache/NoCache measure the interpreter's per-instruction
// cost in isolation (a tight self-loop, no allocation per iteration).
func benchmarkStep(b *testing.B, noICache bool) {
	prog, err := asm.Assemble("main:\tba main\n\tadd r1, r1, 1\n", asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c := New(Config{NoICache: noICache, MaxInstructions: 1 << 62})
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func BenchmarkStepICache(b *testing.B)  { benchmarkStep(b, false) }
func BenchmarkStepNoCache(b *testing.B) { benchmarkStep(b, true) }

// TestICacheCountersPinned pins the icache counters over the lifecycle a
// pooled machine sees — reset and reload, snapshot restores of
// different images, self-modifying stores, a fork — to the values the
// drop-the-page cache produced before the cache moved to
// internal/predecode: clearing pages in place must count exactly as
// dropping them did.
func TestICacheCountersPinned(t *testing.T) {
	assemble := func(src string) *asm.Program {
		t.Helper()
		p, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fib, snap, smc := assemble(fibSrc), assemble(snapSrc), assemble(selfModifyingSrc(t))
	c := New(Config{Windows: 4})
	var got []ICacheStats
	record := func(c *CPU) {
		s := c.ICacheStats()
		s.Pages = 0 // not counted before the move
		got = append(got, s)
	}
	var snaps []*Snapshot
	for _, p := range []*asm.Program{fib, snap, smc} {
		c.Reset(p.Entry)
		if err := p.LoadInto(c.Mem); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, c.Snapshot())
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		record(c)
	}
	for round := 0; round < 2; round++ {
		for _, s := range snaps {
			c.Restore(s)
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			record(c)
		}
	}
	c.Restore(snaps[0])
	if _, err := c.RunSteps(50); err != nil {
		t.Fatal(err)
	}
	f := c.Fork()
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	record(f)
	want := []ICacheStats{
		{Hits: 4397, Misses: 21, Fills: 21, Invalidations: 0},
		{Hits: 4709, Misses: 32, Fills: 32, Invalidations: 1},
		{Hits: 4719, Misses: 47, Fills: 47, Invalidations: 5},
		{Hits: 9116, Misses: 68, Fills: 68, Invalidations: 6},
		{Hits: 9428, Misses: 79, Fills: 79, Invalidations: 7},
		{Hits: 9438, Misses: 94, Fills: 94, Invalidations: 11},
		{Hits: 13835, Misses: 115, Fills: 115, Invalidations: 12},
		{Hits: 14147, Misses: 126, Fills: 126, Invalidations: 13},
		{Hits: 14157, Misses: 141, Fills: 141, Invalidations: 17},
		{Hits: 18554, Misses: 162, Fills: 162, Invalidations: 18},
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d counter sets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: icache counters %+v, want %+v", i, got[i], want[i])
		}
	}
}

package vax

import (
	"fmt"
	"strings"
	"testing"

	"risc1/internal/predecode"
)

// spanState adds the collector's tables to state, for the comparisons
// after every StepN slice.
type spanState struct {
	state
	Mix, Depths string
}

func spanStateOf(c *CPU) spanState {
	return spanState{stateOf(c), fmt.Sprint(c.Trace.OpCounts()), fmt.Sprint(c.Trace.DepthHistogram())}
}

// stepsToPass2 counts the instructions a program executes before its
// pc crosses from below addr to addr or above for the second time: the
// budget that ends a slice at the first instruction past a page end in
// a warm second pass.
func stepsToPass2(t *testing.T, prog *Program, addr uint32) uint64 {
	t.Helper()
	c := New(Config{NoICache: true})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	seen, prev := 0, c.pc
	for n := uint64(0); !c.halted; n++ {
		if prev < addr && c.pc >= addr {
			if seen++; seen == 2 {
				return n
			}
		}
		prev = c.pc
		c.StepN(1)
	}
	t.Fatalf("pc never crossed %#x twice", addr)
	return 0
}

// TestSpanBoundaries drives programs through StepN slices chosen to end
// in the middle of a byte-granular span and at a cache-page end, with
// self-modifying stores into the next instruction of the running span.
// After every slice the cached machine must match the cache-less one in
// every observable, and its cache counters must match the same machine
// stepped one instruction at a time.
func TestSpanBoundaries(t *testing.T) {
	// Every program runs its code twice, so the second pass dispatches
	// from a warm cache; this one's two-byte instructions cross the
	// first cache page's end.
	straight := "start:\tmovl $2, r6\ntop:\tclrl r1\n" + strings.Repeat("\tincl r1\n", 600) +
		"\tdecl r6\n\tbeql done\n\tbrw top\ndone:\thalt\n"
	// Each iteration stores into the instruction right after the store,
	// switching its destination between r1 and r2: a walker that ran a
	// stale copy of the patched entry would add to the wrong register.
	// From the second pass on, an instruction rewrites its own opcode
	// byte (unchanged), which clears its entry while it executes from
	// the span: its accounting must still charge its own opcode.
	smc := fmt.Sprintf(`
start:	clrl r3
	movl $1, r5		; register-mode specifier of r1
	movl $%d, r7		; the movb opcode
	moval scratch, r8
loop:	incl r3
	movb r5, next-1		; the register specifier of the next instruction
	addl2 $1, r2
next:	xorl2 $3, r5		; r1 <-> r2
self:	movb r7, (r8)
	moval self, r8
	cmpl r3, $6
	bneq loop
	halt
scratch: .byte 0
`, MOVB)
	for _, tc := range []struct {
		name   string
		src    string
		slices func(toPageEnd uint64) []uint64
	}{
		{"page-end", straight, func(p uint64) []uint64 { return []uint64{p, 1, 200} }},
		{"across-page", straight, func(p uint64) []uint64 { return []uint64{p - 1, 2, 3, 400} }},
		{"mid-span", straight, func(p uint64) []uint64 { return []uint64{p - 300, 200, 7, 1} }},
		{"smc-next", smc, func(uint64) []uint64 { return []uint64{8, 4, 1, 11, 2, 3, 5} }},
		{"smc-one-slice", smc, func(uint64) []uint64 { return []uint64{1000} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Assemble(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var toPageEnd uint64
			if tc.src == straight {
				toPageEnd = stepsToPass2(t, prog, predecode.PageEntries)
			}
			load := func(cfg Config) *CPU {
				c := New(cfg)
				c.Reset(prog.Entry)
				if err := prog.LoadInto(c.Mem); err != nil {
					t.Fatal(err)
				}
				return c
			}
			on, off, single := load(Config{}), load(Config{NoICache: true}), load(Config{})
			for i, n := range append(tc.slices(toPageEnd), 1<<20) {
				on.StepN(n)
				off.StepN(n)
				for j := uint64(0); j < n && !single.halted; j++ {
					single.StepN(1)
				}
				if a, b := spanStateOf(on), spanStateOf(off); a != b {
					t.Fatalf("after slice %d (%d): cache on and off differ:\n%+v\n%+v", i, n, a, b)
				}
				if a, b := on.ICacheStats(), single.ICacheStats(); a != b {
					t.Fatalf("after slice %d (%d): span counters %+v, one-at-a-time %+v", i, n, a, b)
				}
			}
			if !on.halted || on.haltErr != nil {
				t.Fatalf("did not halt cleanly: %v", on.haltErr)
			}
			if st := on.ICacheStats(); st.Hits == 0 || st.Hits+st.Misses != on.Trace.Instructions {
				t.Errorf("hits %d + misses %d, want hits and one count per instruction (%d)", st.Hits, st.Misses, on.Trace.Instructions)
			}
		})
	}
}

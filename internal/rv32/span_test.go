package rv32

import (
	"fmt"
	"strings"
	"testing"

	"risc1/internal/predecode"
)

// spanState is every simulated observable of a run, compared between
// span dispatch and the cache-less machine after every StepN slice.
type spanState struct {
	PC           uint32
	R            [NumRegs]uint32
	Depth        int
	Stats        Stats
	Instructions uint64
	Cycles       uint64
	Mix, Depths  string
	Halted       bool
	HaltErr      string
}

func spanStateOf(c *CPU) spanState {
	s := spanState{
		PC: c.pc, R: c.R, Depth: c.depth, Stats: c.Stats,
		Instructions: c.Trace.Instructions, Cycles: c.Trace.Cycles,
		Mix:    fmt.Sprint(c.Trace.OpCounts()),
		Depths: fmt.Sprint(c.Trace.DepthHistogram()),
	}
	var err error
	if s.Halted, err = c.Halted(); err != nil {
		s.HaltErr = err.Error()
	}
	return s
}

// stepsToPass2 counts the instructions a program executes before its
// pc reaches addr for the second time: the budget that ends a slice
// exactly there in a warm second pass.
func stepsToPass2(t *testing.T, prog *Program, addr uint32) uint64 {
	t.Helper()
	c := New(Config{NoICache: true})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for n := uint64(0); !c.halted; n++ {
		if c.pc == addr {
			if seen++; seen == 2 {
				return n
			}
		}
		c.StepN(1)
	}
	t.Fatalf("pc never reached %#x twice", addr)
	return 0
}

// TestSpanBoundaries drives programs through StepN slices chosen to end
// in the middle of a span and exactly at a cache-page end, with
// self-modifying stores into the next instruction of the running span.
// After every slice the cached machine must match the cache-less one in
// every observable, and its cache counters must match the same machine
// stepped one instruction at a time.
func TestSpanBoundaries(t *testing.T) {
	// Every program runs its code twice, so the second pass dispatches
	// from a warm cache; this one crosses the first cache page's end.
	straight := "\tli s1, 2\ntop:\n\tli a0, 0\n" + strings.Repeat("\taddi a0, a0, 1\n", 1100) +
		"\taddi s1, s1, -1\n\tbeqz s1, done\n\tj top\ndone:\n\tecall\n"
	addOne, err := Encode(ADDI, 11, 11, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	addFive, err := Encode(ADDI, 11, 11, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Each iteration stores into the instruction right after the store,
	// alternating its two encodings: a walker that ran a stale copy of
	// the patched entry would compute a different a1.
	smc := fmt.Sprintf(`
	li a0, 0
	li s0, 6
	la t1, target
	li t2, %d
	li t3, %d
loop:
	addi a0, a0, 1
	sw t2, 0(t1)
target:
	addi a1, a1, 1
	xor t2, t2, t3
	blt a0, s0, loop
	ecall
`, int32(addFive), int32(addOne^addFive))
	const pageEnd = predecode.PageEntries * 4
	for _, tc := range []struct {
		name   string
		src    string
		slices func(toPageEnd uint64) []uint64
	}{
		{"page-end", straight, func(p uint64) []uint64 { return []uint64{p, 1, 200} }},
		{"across-page", straight, func(p uint64) []uint64 { return []uint64{p - 1, 2, 3, predecode.PageEntries} }},
		{"mid-span", straight, func(p uint64) []uint64 { return []uint64{p - 600, 500, 7, 1} }},
		{"smc-next", smc, func(uint64) []uint64 { return []uint64{9, 4, 1, 11, 2, 3, 5} }},
		{"smc-one-slice", smc, func(uint64) []uint64 { return []uint64{1000} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Assemble(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var toPageEnd uint64
			if tc.src == straight {
				toPageEnd = stepsToPass2(t, prog, pageEnd)
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

// FuzzRV32CacheDifferential runs arbitrary words as rv32 code, placed
// across the first cache page's end, on two machines, predecode cache
// on and off, splitting the budget into fuzz-chosen StepN slices so
// runs stop in the middle of spans and at page ends: every observable
// must agree after every slice, including for code that faults or
// overwrites itself.
func FuzzRV32CacheDifferential(f *testing.F) {
	for _, src := range []string{
		"\tli a0, 40\n\taddi a0, a0, 2\n\tecall\n",
		"\tli t0, 3\nl:\n\taddi t0, t0, -1\n\tbnez t0, l\n\tecall\n",
		"\tla t1, t\n\tsw zero, 0(t1)\nt:\n\taddi a1, a1, 1\n\tecall\n",
		"\tcall f\n\tecall\nf:\n\taddi a0, zero, 7\n\tret\n",
	} {
		prog, err := Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.Segments[0].Data, []byte{1, 3, 200})
	}
	const memSize = 2 * predecode.PageEntries * 4
	f.Fuzz(func(t *testing.T, code, slices []byte) {
		if len(code) > 1024 || len(slices) > 64 {
			return
		}
		base := (memSize/2 - uint32(len(code))/2) &^ 3
		var states []spanState
		for _, noICache := range []bool{false, true} {
			c := New(Config{MemSize: memSize, NoICache: noICache})
			c.Reset(base)
			if err := c.Mem.WriteBytes(base, code); err != nil {
				t.Fatal(err)
			}
			// Budget 256 in fuzz-chosen slices (a zero byte means 1).
			left := uint64(256)
			for _, b := range slices {
				n := min(uint64(max(b, 1)), left)
				c.StepN(n)
				left -= n
				states = append(states, spanStateOf(c))
			}
			c.StepN(left)
			states = append(states, spanStateOf(c))
		}
		half := len(states) / 2
		for i := range half {
			if states[i] != states[half+i] {
				t.Fatalf("slice %d: icache and nocache runs differ on % x:\n%+v\n%+v", i, code, states[i], states[half+i])
			}
		}
	})
}

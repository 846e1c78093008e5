package cpu

import (
	"fmt"
	"strings"
	"testing"

	"risc1/internal/asm"
	"risc1/internal/isa"
	"risc1/internal/predecode"
)

// spanState is every simulated observable of a run, compared between
// span dispatch and the cache-less machine after every StepN slice.
type spanState struct {
	PC, NPC, LastPC uint32
	InSlot, IntOn   bool
	CWP             int
	Regs            [32]uint32
	Flags           isa.Flags
	Stats           Stats
	Instructions    uint64
	Cycles          uint64
	Mix, Depths     string
	Halted          bool
	HaltErr         string
}

func spanStateOf(c *CPU) spanState {
	s := spanState{
		PC: c.pc, NPC: c.npc, LastPC: c.lastPC, InSlot: c.inSlot, IntOn: c.intEnabled,
		CWP: c.Regs.CWP(), Flags: c.flags, Stats: c.Stats,
		Instructions: c.Trace.Instructions, Cycles: c.Trace.Cycles,
		Mix:    fmt.Sprint(c.Trace.OpCounts()),
		Depths: fmt.Sprint(c.Trace.DepthHistogram()),
	}
	for r := range s.Regs {
		s.Regs[r] = c.Regs.Get(uint8(r))
	}
	var err error
	if s.Halted, err = c.Halted(); err != nil {
		s.HaltErr = err.Error()
	}
	return s
}

// encode assembles one instruction word for patching code at runtime.
func encode(t *testing.T, in isa.Inst) uint32 {
	t.Helper()
	w, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSpanBoundaries drives programs through StepN slices chosen to end
// in the middle of a span, on a delay slot and exactly at a cache-page
// end, with self-modifying stores into the next instruction of the
// running span and an interrupt raised between slices. After every
// slice the cached machine must match the cache-less one in every
// observable, and its cache counters must match the same machine
// stepped one instruction at a time.
func TestSpanBoundaries(t *testing.T) {
	addOne := encode(t, isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 2, Imm: true, Imm13: 1})
	addFive := encode(t, isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 2, Imm: true, Imm13: 5})
	// Every program runs its code twice, so the second pass dispatches
	// from a warm cache. Here 1100 straight-line instructions from
	// address 4 cross the cache page boundary at address PageEntries*4:
	// the second pass reaches it after pass+PageEntries-1 instructions.
	straight := "main:\tadd r6, r0, 2\ntop:\tadd r1, r0, 0\n" + strings.Repeat("\tadd r1, r1, 1\n", 1100) +
		"\tsub. r6, r6, 1\n\tbne top\n\tnop\n\tret\n\tnop\n"
	const pass = 1 + 1 + 1100 + 3
	// A loop whose conditional jump is instruction 5, 9, 13, ... and
	// whose delay slot does work; the handler is for the interrupt case.
	loop := `
main:	add r1, r0, 0
	add r2, r0, 10
loop:	add r1, r1, 3
	sub. r2, r2, 1
	bne loop
	add r3, r3, 1		; delay slot
	add r4, r1, r3
	ret
	nop
	.org 0x400
handler:
	add r5, r5, 1
	retint r25, 0
	nop
`
	// A taken jump to the instruction right after its delay slot: the
	// run stays sequential through the transfer, so an interrupt
	// deferred out of the slot must stop the walk right after it.
	fwd := `
main:	add r6, r0, 2
top:	add r1, r0, 1
	ba over
	add r2, r0, 2		; delay slot
over:	add r3, r0, 3
	sub. r6, r6, 1
	bne top
	nop
	ret
	nop
	.org 0x400
handler:
	add r5, r5, 1
	retint r25, 0
	nop
`
	// Each iteration stores into the instruction right after the store,
	// alternating its two encodings: a walker that ran a stale copy of
	// the patched entry would compute a different r2.
	smc := fmt.Sprintf(`
main:	add r2, r0, 0
	add r3, r0, 0
	li r4, %d
	li r5, target
	li r8, %d
loop:	add r3, r3, 1
	stl r4, r5, 0
target:	add r2, r2, 1
	xor r4, r4, r8
	sub. r0, r3, 6
	blt loop
	nop
	ret
	nop
`, int32(addFive), int32(addOne^addFive))
	const page = predecode.PageEntries
	cases := []struct {
		name   string
		src    string
		slices []uint64
		irqAt  int // raise the handler's interrupt before this slice; -1 never
	}{
		{"page-end", straight, []uint64{pass + page - 1, 1, 200}, -1},
		{"across-page", straight, []uint64{pass + page - 2, 2, 3, page}, -1},
		{"mid-span", straight, []uint64{pass + 3, 500, 7, 1}, -1},
		{"delay-slot", loop, []uint64{5, 1, 3, 4, 2, 6, 1}, -1},
		{"irq-in-slot", loop, []uint64{5, 1, 2, 3, 4}, 1},
		{"irq-mid-span", loop, []uint64{3, 2, 2, 9}, 1},
		{"irq-after-slot", fwd, []uint64{10, 4}, 1}, // in the second pass's slot
		{"smc-next", smc, []uint64{9, 4, 1, 11, 2, 3, 5}, -1},
		{"smc-one-slice", smc, []uint64{1000}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.src, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			vector, _ := prog.Symbol("handler")
			load := func(cfg Config) *CPU {
				c := New(cfg)
				c.Reset(prog.Entry)
				if err := prog.LoadInto(c.Mem); err != nil {
					t.Fatal(err)
				}
				return c
			}
			on, off, single := load(Config{}), load(Config{NoICache: true}), load(Config{})
			slices := append(tc.slices, 1<<20) // then run to the halt
			for i, n := range slices {
				if i == tc.irqAt {
					for _, c := range []*CPU{on, off, single} {
						c.RaiseInterrupt(vector)
					}
				}
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

// FuzzRISC1CacheDifferential runs arbitrary words as RISC I code on two
// machines, predecode cache on and off, splitting the budget into
// fuzz-chosen StepN slices so runs stop in the middle of spans, on
// delay slots and at page ends: every observable must agree after
// every slice, including for code that faults or overwrites itself.
func FuzzRISC1CacheDifferential(f *testing.F) {
	for _, src := range []string{
		"main:\tadd r1, r0, 40\n\tadd r1, r1, 2\n\tret\n\tnop\n",
		"main:\tadd r2, r0, 3\nl:\tsub. r2, r2, 1\n\tbne l\n\tadd r3, r3, 1\n\tret\n\tnop\n",
		"main:\tli r5, t\n\tstl r0, r5, 0\nt:\tadd r1, r1, 1\n\tret\n\tnop\n",
		"main:\tcall f\n\tnop\n\tret\n\tnop\nf:\tadd r26, r0, 7\n\tret\n\tnop\n",
	} {
		prog, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.Segments[0].Data, []byte{1, 3, 200})
	}
	const memSize = 2 * predecode.PageEntries * isa.InstBytes
	f.Fuzz(func(t *testing.T, code, slices []byte) {
		if len(code) > 1024 || len(slices) > 64 {
			return
		}
		// The code straddles the first cache page's end.
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

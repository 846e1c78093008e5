package session

import (
	"context"
	"testing"

	"risc1/internal/machine"
)

// TestBreakpointMidStraightLine arms a breakpoint in the middle of a
// straight-line run of fib's body, which the predecoded spans of every
// backend would otherwise walk through in one dispatch: each run must
// stop exactly on every visit, with the instruction count of a
// cache-less reference machine stepped one instruction at a time, and
// the program
// must finish identically once the breakpoint is cleared.
func TestBreakpointMidStraightLine(t *testing.T) {
	o := machine.Options{Opt: 1, DelaySlots: true}
	for _, name := range []string{"risc1", "cisc", "rv32"} {
		t.Run(name, func(t *testing.T) {
			nocache := o
			nocache.NoICache = true
			ref, _ := buildMachine(t, name, fibSrc, nocache)
			var pcs []uint32
			for {
				pcs = append(pcs, ref.PC())
				halted, err := ref.RunSteps(1)
				if err != nil {
					t.Fatal(err)
				}
				if halted {
					break
				}
			}
			// The first pc with two straight-line neighbours on each side
			// that the run visits at least three times.
			visits := make(map[uint32][]uint64)
			for i, pc := range pcs {
				visits[pc] = append(visits[pc], uint64(i))
			}
			near := func(a, b uint32) bool { return a < b && b-a <= 16 }
			bp := uint32(0)
			for i := 2; i+2 < len(pcs) && bp == 0; i++ {
				if near(pcs[i-2], pcs[i-1]) && near(pcs[i-1], pcs[i]) && near(pcs[i], pcs[i+1]) &&
					near(pcs[i+1], pcs[i+2]) && len(visits[pcs[i]]) >= 3 {
					bp = pcs[i]
				}
			}
			if bp == 0 {
				t.Fatal("no straight-line pc visited three times")
			}
			m, prog := buildMachine(t, name, fibSrc, o)
			s := New("test-span-"+name, m, prog)
			if err := s.AddBreakpoint(context.Background(), bp); err != nil {
				t.Fatal(err)
			}
			for k, at := range visits[bp][:3] {
				st, err := s.Run(context.Background(), 0)
				if err != nil {
					t.Fatal(err)
				}
				if st.Stopped != StopBreakpoint || st.PC != bp || st.Instructions != at {
					t.Fatalf("visit %d: %+v, want a breakpoint stop at %#x after %d instructions", k, st, bp, at)
				}
			}
			if err := s.ClearBreakpoint(context.Background(), bp); err != nil {
				t.Fatal(err)
			}
			st, err := s.Run(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Stopped != StopHalt || st.Instructions != ref.Instructions() || st.Cycles != ref.Cycles() {
				t.Fatalf("final run: %+v, want a clean halt after %d instructions, %d cycles", st, ref.Instructions(), ref.Cycles())
			}
		})
	}
}

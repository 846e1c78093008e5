package vax

import (
	"fmt"
	"testing"

	"risc1/internal/predecode"
)

// state is every simulated observable of a CISC run.
type state struct {
	R                  [NumRegs]uint32
	N, Z, V, C, Halted bool
	HaltErr            string
	PC                 uint32
	Stats              Stats
	Instructions       uint64
	Cycles             uint64
	Reads, Writes      uint64
}

func stateOf(c *CPU) state {
	s := state{
		R: c.R, N: c.n, Z: c.z, V: c.v, C: c.c, PC: c.pc, Stats: c.Stats,
		Instructions: c.Trace.Instructions, Cycles: c.Trace.Cycles,
		Reads: c.Mem.Stats.Reads, Writes: c.Mem.Stats.Writes,
	}
	var err error
	if s.Halted, err = c.Halted(); err != nil {
		s.HaltErr = err.Error()
	}
	return s
}

// TestMaxInstLen pins the metadata-derived bound the cache's
// invalidation reach-back is built on: a three-operand instruction with
// three long-displacement specifiers.
func TestMaxInstLen(t *testing.T) {
	if MaxInstLen != 16 {
		t.Errorf("MaxInstLen = %d, want 16", MaxInstLen)
	}
	raw, err := Assemble("start:\taddl3 100000(r1), 100000(r2), 100000(r3)\n")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(raw.Segments[0].Data); n != MaxInstLen {
		t.Errorf("longest instruction assembles to %d bytes, want %d", n, MaxInstLen)
	}
}

// TestStraddlingSelfModifyingCode: an instruction that straddles a
// cache page (first byte 1021, cache pages hold 1024 one-byte entries)
// or a 4 KiB memory page (first byte 4093) runs once, the program
// stores into its last byte — its destination specifier, r1 becomes
// r2 — and runs it again. The second run must execute the new bytes,
// with every observable identical to the cache-less machine.
func TestStraddlingSelfModifyingCode(t *testing.T) {
	for _, first := range []int{predecode.PageEntries - 3, 4093} {
		src := fmt.Sprintf(`
start:	clrl r3
	jmp target
	.org %d
target:	movl $5, r1		; 7 bytes: opcode, immediate specifier, literal, r1
	incl r3
	cmpl r3, $2
	beql done
	movb $2, target+6	; the last byte: register specifier r1 -> r2
	brw target
done:	halt
`, first)
		prog, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		var states []state
		for _, noICache := range []bool{false, true} {
			c := New(Config{NoICache: noICache})
			c.Reset(prog.Entry)
			if err := prog.LoadInto(c.Mem); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(); err != nil {
				t.Fatalf("first=%d: run: %v", first, err)
			}
			if c.R[1] != 5 || c.R[2] != 5 {
				t.Errorf("first=%d nocache=%v: r1 = %d, r2 = %d, want 5 and 5 (stale decode?)", first, noICache, c.R[1], c.R[2])
			}
			if st := c.ICacheStats(); !noICache && st.Invalidations == 0 {
				t.Errorf("first=%d: no invalidation from the patch: %+v", first, st)
			}
			states = append(states, stateOf(c))
		}
		if states[0] != states[1] {
			t.Errorf("first=%d: icache and nocache runs differ:\n%+v\n%+v", first, states[0], states[1])
		}
	}
}

// FuzzCISCCacheDifferential runs arbitrary bytes as CISC code — loaded
// at address 0, their first eight bytes also at the end of memory — for
// a bounded number of steps on two machines, predecode cache on and off:
// registers, flags, pc, statistics and the halt error must agree —
// including for code that faults mid-instruction or overwrites itself.
func FuzzCISCCacheDifferential(f *testing.F) {
	for _, src := range []string{
		"start:\tmovl $40, r0\n\taddl2 $2, r0\n\tsubl3 $2, r0, r1\n\thalt\n",
		"start:\tmoval tbl, r1\n\tmovl (r1)+, r2\n\tmovl -(r1), r3\n\tmovl 4(r1), r4\n\thalt\ntbl:\t.word 11, 22\n",
		"start:\tclrl r3\nloop:\tmovb r3, loop+1\n\tincl r3\n\tcmpl r3, $5\n\tbneq loop\n\thalt\n",
		"start:\tpushl $1\n\tcalls $1, fn\n\thalt\nfn:\t.entry r2\n\tmovl 4(ap), r0\n\tret\n",
	} {
		prog, err := Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.Segments[0].Data)
	}
	// jmp to 0xffe, where the tail copy holds "movl $…": the literal
	// runs off the end of memory mid-instruction.
	f.Add([]byte{byte(JMP), 0x71, 0, 0, 0x0f, 0xfe, byte(MOVL), 0x70})
	f.Add([]byte{byte(ADDL3), 0x51, 0x08, 0x52}) // bad mode in the second specifier
	const memSize = 1 << 12
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 512 {
			return
		}
		tail := code[:min(len(code), 8)] // also placed at the end of memory
		var states []state
		for _, noICache := range []bool{false, true} {
			c := New(Config{MemSize: memSize, NoICache: noICache})
			c.Reset(0)
			if err := c.Mem.WriteBytes(memSize-uint32(len(tail)), tail); err != nil {
				t.Fatal(err)
			}
			if err := c.Mem.WriteBytes(0, code); err != nil {
				t.Fatal(err)
			}
			c.StepN(256)
			states = append(states, stateOf(c))
		}
		if states[0] != states[1] {
			t.Fatalf("icache and nocache runs differ on % x:\n%+v\n%+v", code, states[0], states[1])
		}
	})
}

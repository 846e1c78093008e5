package vax

import "testing"

func assembleVax(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSimulatorsDoNotAliasMemory is the CISC half of the package-state
// audit: two machines constructed independently share no memory,
// registers, or counters.
func TestSimulatorsDoNotAliasMemory(t *testing.T) {
	prog := assembleVax(t, `
start:	movl $1234, r1
	movl r1, buf
	halt
	.align 4
buf:	.word 0
	`)
	a := New(Config{})
	b := New(Config{})
	a.Reset(prog.Entry)
	prog.LoadInto(a.Mem)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.R[1] != 1234 {
		t.Fatalf("scribbler did not run: r1 = %d", a.R[1])
	}
	if b.R[1] != 0 {
		t.Errorf("second CPU sees the first CPU's register write: r1 = %d", b.R[1])
	}
	if b.Trace.Instructions != 0 {
		t.Errorf("second CPU counted the first CPU's instructions: %d", b.Trace.Instructions)
	}
	// The whole untouched memory image must still be zero where the
	// first machine's program and data landed.
	for addr := prog.Entry; addr < prog.Entry+64; addr += 4 {
		if v, err := b.Mem.LoadWord(addr); err != nil || v != 0 {
			t.Errorf("second CPU memory at %#x = %#x (%v), want 0", addr, v, err)
			break
		}
	}
}

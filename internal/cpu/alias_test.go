package cpu

import (
	"testing"

	"risc1/internal/asm"
)

func assemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSimulatorsDoNotAliasMemory is the package-state audit's teeth: two
// independently constructed CPUs share nothing. One runs a program and
// scribbles over memory and registers; the other — untouched since
// construction — must still be pristine.
func TestSimulatorsDoNotAliasMemory(t *testing.T) {
	scribble := assemble(t, `
	.equ buf, 0x800
main:	li r1, 0xdeadbeef
	li r2, buf
	stl r1, r2, 0
	stl r1, r2, 4
	ret
	nop
	`)
	a := New(Config{})
	b := New(Config{})
	a.Reset(scribble.Entry)
	scribble.LoadInto(a.Mem)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Mem.LoadWord(0x800); v != 0xdeadbeef {
		t.Fatalf("scribbler did not write: %#x", v)
	}
	if v, _ := b.Mem.LoadWord(0x800); v != 0 {
		t.Errorf("second CPU sees the first CPU's store: mem[0x800] = %#x", v)
	}
	if v := b.Regs.Get(1); v != 0 {
		t.Errorf("second CPU sees the first CPU's register write: r1 = %#x", v)
	}
	if b.Trace.Instructions != 0 {
		t.Errorf("second CPU counted the first CPU's instructions: %d", b.Trace.Instructions)
	}
}

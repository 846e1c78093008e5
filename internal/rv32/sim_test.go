package rv32

import (
	"errors"
	"math"
	"testing"

	"risc1/internal/fuel"
)

func runSource(t *testing.T, src string) *CPU {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(Config{MemSize: 1 << 16})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Rd: 5, Rs1: 6, Imm: -2048},
		{Op: ADDI, Rd: 5, Rs1: 6, Imm: 2047},
		{Op: LUI, Rd: 10, Imm: 0xfffff},
		{Op: JAL, Rd: 1, Imm: -1048576},
		{Op: JAL, Rd: 0, Imm: 1048574},
		{Op: BEQ, Rs1: 3, Rs2: 4, Imm: -4096},
		{Op: BGEU, Rs1: 31, Rs2: 1, Imm: 4094},
		{Op: SW, Rs1: 2, Rs2: 8, Imm: -4},
		{Op: LW, Rd: 15, Rs1: 2, Imm: 124},
		{Op: SLLI, Rd: 7, Rs1: 7, Imm: 31},
		{Op: SRAI, Rd: 7, Rs1: 7, Imm: 1},
		{Op: MUL, Rd: 12, Rs1: 13, Rs2: 14},
		{Op: ECALL},
	}
	for _, in := range cases {
		w, err := Encode(in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %#08x (%+v): %v", w, in, err)
		}
		if got != in {
			t.Errorf("round trip %+v: got %+v (word %#08x)", in, got, w)
		}
	}
}

func TestSumLoop(t *testing.T) {
	c := runSource(t, `
		li   a0, 0
		li   t0, 1
		li   t1, 101
	loop:
		add  a0, a0, t0
		addi t0, t0, 1
		blt  t0, t1, loop
		la   t2, result
		sw   a0, 0(t2)
		ecall
	result:
		.word 0
	`)
	if got := c.R[10]; got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
	if c.Stats.BranchesTaken != 99 || c.Stats.BranchesUntaken != 1 {
		t.Errorf("branches taken/untaken = %d/%d, want 99/1", c.Stats.BranchesTaken, c.Stats.BranchesUntaken)
	}
}

func TestCallReturnAndStats(t *testing.T) {
	c := runSource(t, `
	start:
		li   sp, 0x8000
		li   a0, 6
		li   a1, 7
		call mulfn
		ecall
	mulfn:
		mul  a0, a0, a1
		ret
	`)
	if got := c.R[10]; got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
	if c.Stats.Calls != 1 || c.Stats.Returns != 1 {
		t.Errorf("calls/returns = %d/%d, want 1/1", c.Stats.Calls, c.Stats.Returns)
	}
	if c.Stats.MulDivOps != 1 {
		t.Errorf("mulDivOps = %d, want 1", c.Stats.MulDivOps)
	}
}

func TestDivisionSemantics(t *testing.T) {
	if q := div32(10, 0); q != -1 {
		t.Errorf("10/0 = %d, want -1", q)
	}
	if r := rem32(10, 0); r != 10 {
		t.Errorf("10%%0 = %d, want 10", r)
	}
	if q := div32(math.MinInt32, -1); q != math.MinInt32 {
		t.Errorf("MinInt32/-1 = %d, want MinInt32", q)
	}
	if r := rem32(math.MinInt32, -1); r != 0 {
		t.Errorf("MinInt32%%-1 = %d, want 0", r)
	}
	if q := div32(-7, 2); q != -3 {
		t.Errorf("-7/2 = %d, want -3 (truncating)", q)
	}
	if r := rem32(-7, 2); r != -1 {
		t.Errorf("-7%%2 = %d, want -1", r)
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	c := runSource(t, `
		li   t0, 99
		addi zero, t0, 1
		add  a0, zero, t0
		ecall
	`)
	if c.R[0] != 0 {
		t.Errorf("x0 = %d, want 0", c.R[0])
	}
	if c.R[10] != 99 {
		t.Errorf("a0 = %d, want 99", c.R[10])
	}
}

func TestWideLiAndMemory(t *testing.T) {
	c := runSource(t, `
		li   t0, 123456789
		la   t1, buf
		sw   t0, 0(t1)
		lw   a0, 0(t1)
		li   t2, -300
		sb   t2, 4(t1)
		lb   a1, 4(t1)
		lbu  a2, 4(t1)
		ecall
	buf:
		.space 8
	`)
	if c.R[10] != 123456789 {
		t.Errorf("lw = %d, want 123456789", c.R[10])
	}
	// -300 truncates to the byte 0xd4: lb sign-extends to -44, lbu zero-extends to 212.
	if int32(c.R[11]) != -44 {
		t.Errorf("lb = %d, want -44", int32(c.R[11]))
	}
	if c.R[12] != 212 {
		t.Errorf("lbu = %d, want 212", c.R[12])
	}
}

func TestInstructionLimit(t *testing.T) {
	prog := MustAssemble(`
	loop:
		j loop
	`)
	c := New(Config{MemSize: 1 << 16, MaxInstructions: 100})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	err := c.Run()
	if !errors.Is(err, fuel.ErrExhausted) {
		t.Fatalf("err = %v, want fuel.ErrExhausted", err)
	}
}

func TestSnapshotRestoreDeterminism(t *testing.T) {
	src := `
		li   a0, 0
		li   t0, 0
		li   t1, 50
	loop:
		mul  t2, t0, t0
		add  a0, a0, t2
		addi t0, t0, 1
		blt  t0, t1, loop
		ecall
	`
	prog := MustAssemble(src)
	c := New(Config{MemSize: 1 << 16})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := c.R[10]
	wantCycles := c.Trace.Cycles

	c.Restore(snap)
	if h, _ := c.Halted(); h {
		t.Fatal("restored machine reports halted")
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.R[10] != want || c.Trace.Cycles != wantCycles {
		t.Errorf("replay diverged: a0=%d cycles=%d, want a0=%d cycles=%d", c.R[10], c.Trace.Cycles, want, wantCycles)
	}
	snap.Release()
}

func TestForkIsolation(t *testing.T) {
	prog := MustAssemble(`
		li  t0, 1
		la  t1, cell
		sw  t0, 0(t1)
		ecall
	cell:
		.word 0
	`)
	c := New(Config{MemSize: 1 << 16})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	f := c.Fork()
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	addr, _ := prog.Symbol("cell")
	if v, _ := c.Mem.LoadWord(addr); v != 0 {
		t.Errorf("parent memory mutated by fork: cell = %d", v)
	}
	if v, _ := f.Mem.LoadWord(addr); v != 1 {
		t.Errorf("fork cell = %d, want 1", v)
	}
}

func TestDisassembleListing(t *testing.T) {
	prog := MustAssemble(`
	start:
		addi a0, zero, 5
		beq  a0, zero, start
		lw   a1, 8(sp)
		jal  ra, start
		ecall
	`)
	c := New(Config{MemSize: 1 << 16})
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"addi a0, zero, 5",
		"beq a0, zero, 0x0",
		"lw a1, 8(sp)",
		"jal ra, 0x0",
		"ecall",
	}
	for i, w := range want {
		raw, err := c.Mem.ReadBytes(uint32(4*i), 4)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := Disassemble(raw, 0, uint32(4*i))
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 || got != w {
			t.Errorf("disasm[%d] = %q (len %d), want %q", i, got, n, w)
		}
	}
}

func TestBuildReport(t *testing.T) {
	c := runSource(t, `
		li  a0, 2
		li  a1, 3
		mul a0, a0, a1
		ecall
	`)
	r := c.BuildReport("smoke")
	if r.Machine != "rv32" {
		t.Errorf("machine = %q, want rv32", r.Machine)
	}
	if r.Rv32 == nil || r.Rv32.MulDivOps != 1 {
		t.Errorf("rv32 section = %+v, want MulDivOps 1", r.Rv32)
	}
	if r.Totals.Instructions == 0 || r.Totals.CPI < 1 {
		t.Errorf("totals = %+v", r.Totals)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatal(err)
	}
}

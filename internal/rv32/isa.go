// Package rv32 implements the third machine of the cross-ISA study: a
// delay-slot-free RV32I-subset processor with the M-extension multiply
// and divide instructions. Where RISC I (internal/cpu) answers the
// paper's question with register windows and branch delay slots, this
// machine answers it the way RISC's descendants did — a flat 32-entry
// register file, compare-and-branch instructions, and a short pipeline
// that simply pays a bubble on taken branches. It shares the memory
// system, trace collector, observer layer and report schema with the
// other two machines, so the three-way tables compare architecture, not
// instrumentation.
//
// The encodings are the real RV32I/M ones (R/I/S/B/U/J formats), so the
// disassembler and any external RISC-V reference agree about what a
// word means.
package rv32

import "fmt"

// Op identifies one instruction of the subset.
type Op uint8

const (
	opInvalid Op = iota

	LUI
	AUIPC
	JAL
	JALR

	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	LB
	LBU
	LW
	SB
	SW

	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI

	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND

	MUL
	DIV
	REM

	ECALL
	EBREAK

	numOps
)

// NumInstructions is the subset's opcode count, reported in the
// machine-characteristics table alongside RISC I's 31 and the
// baseline's CISC repertoire.
const NumInstructions = int(numOps) - 1

// Fmt is the RISC-V instruction format an opcode encodes with.
type Fmt uint8

const (
	FmtR   Fmt = iota
	FmtI       // 12-bit signed immediate (ALU-immediate, loads, jalr)
	FmtIS      // shift-immediate: shamt in [24:20], funct7 selects srl/sra
	FmtS       // stores
	FmtB       // conditional branches, ±4 KiB
	FmtU       // lui/auipc, 20-bit upper immediate
	FmtJ       // jal, ±1 MiB
	FmtSys     // ecall/ebreak
)

// Info is per-opcode metadata: the encoding fields and the mix class.
type Info struct {
	Op     Op
	Name   string
	Fmt    Fmt
	Opcode uint32 // 7-bit major opcode
	Funct3 uint32
	Funct7 uint32
	// Class buckets the opcode for instruction-mix reporting, using the
	// same headings as the RISC I tables: alu, memory, control, misc.
	Class string
}

// Major opcodes of the base ISA.
const (
	opcLUI    = 0b0110111
	opcAUIPC  = 0b0010111
	opcJAL    = 0b1101111
	opcJALR   = 0b1100111
	opcBranch = 0b1100011
	opcLoad   = 0b0000011
	opcStore  = 0b0100011
	opcOpImm  = 0b0010011
	opcOp     = 0b0110011
	opcSystem = 0b1110011
)

var infos = [numOps]Info{
	LUI:   {Name: "lui", Fmt: FmtU, Opcode: opcLUI, Class: "alu"},
	AUIPC: {Name: "auipc", Fmt: FmtU, Opcode: opcAUIPC, Class: "alu"},
	JAL:   {Name: "jal", Fmt: FmtJ, Opcode: opcJAL, Class: "control"},
	JALR:  {Name: "jalr", Fmt: FmtI, Opcode: opcJALR, Funct3: 0b000, Class: "control"},

	BEQ:  {Name: "beq", Fmt: FmtB, Opcode: opcBranch, Funct3: 0b000, Class: "control"},
	BNE:  {Name: "bne", Fmt: FmtB, Opcode: opcBranch, Funct3: 0b001, Class: "control"},
	BLT:  {Name: "blt", Fmt: FmtB, Opcode: opcBranch, Funct3: 0b100, Class: "control"},
	BGE:  {Name: "bge", Fmt: FmtB, Opcode: opcBranch, Funct3: 0b101, Class: "control"},
	BLTU: {Name: "bltu", Fmt: FmtB, Opcode: opcBranch, Funct3: 0b110, Class: "control"},
	BGEU: {Name: "bgeu", Fmt: FmtB, Opcode: opcBranch, Funct3: 0b111, Class: "control"},

	LB:  {Name: "lb", Fmt: FmtI, Opcode: opcLoad, Funct3: 0b000, Class: "memory"},
	LBU: {Name: "lbu", Fmt: FmtI, Opcode: opcLoad, Funct3: 0b100, Class: "memory"},
	LW:  {Name: "lw", Fmt: FmtI, Opcode: opcLoad, Funct3: 0b010, Class: "memory"},
	SB:  {Name: "sb", Fmt: FmtS, Opcode: opcStore, Funct3: 0b000, Class: "memory"},
	SW:  {Name: "sw", Fmt: FmtS, Opcode: opcStore, Funct3: 0b010, Class: "memory"},

	ADDI:  {Name: "addi", Fmt: FmtI, Opcode: opcOpImm, Funct3: 0b000, Class: "alu"},
	SLTI:  {Name: "slti", Fmt: FmtI, Opcode: opcOpImm, Funct3: 0b010, Class: "alu"},
	SLTIU: {Name: "sltiu", Fmt: FmtI, Opcode: opcOpImm, Funct3: 0b011, Class: "alu"},
	XORI:  {Name: "xori", Fmt: FmtI, Opcode: opcOpImm, Funct3: 0b100, Class: "alu"},
	ORI:   {Name: "ori", Fmt: FmtI, Opcode: opcOpImm, Funct3: 0b110, Class: "alu"},
	ANDI:  {Name: "andi", Fmt: FmtI, Opcode: opcOpImm, Funct3: 0b111, Class: "alu"},
	SLLI:  {Name: "slli", Fmt: FmtIS, Opcode: opcOpImm, Funct3: 0b001, Funct7: 0b0000000, Class: "alu"},
	SRLI:  {Name: "srli", Fmt: FmtIS, Opcode: opcOpImm, Funct3: 0b101, Funct7: 0b0000000, Class: "alu"},
	SRAI:  {Name: "srai", Fmt: FmtIS, Opcode: opcOpImm, Funct3: 0b101, Funct7: 0b0100000, Class: "alu"},

	ADD:  {Name: "add", Fmt: FmtR, Opcode: opcOp, Funct3: 0b000, Funct7: 0b0000000, Class: "alu"},
	SUB:  {Name: "sub", Fmt: FmtR, Opcode: opcOp, Funct3: 0b000, Funct7: 0b0100000, Class: "alu"},
	SLL:  {Name: "sll", Fmt: FmtR, Opcode: opcOp, Funct3: 0b001, Funct7: 0b0000000, Class: "alu"},
	SLT:  {Name: "slt", Fmt: FmtR, Opcode: opcOp, Funct3: 0b010, Funct7: 0b0000000, Class: "alu"},
	SLTU: {Name: "sltu", Fmt: FmtR, Opcode: opcOp, Funct3: 0b011, Funct7: 0b0000000, Class: "alu"},
	XOR:  {Name: "xor", Fmt: FmtR, Opcode: opcOp, Funct3: 0b100, Funct7: 0b0000000, Class: "alu"},
	SRL:  {Name: "srl", Fmt: FmtR, Opcode: opcOp, Funct3: 0b101, Funct7: 0b0000000, Class: "alu"},
	SRA:  {Name: "sra", Fmt: FmtR, Opcode: opcOp, Funct3: 0b101, Funct7: 0b0100000, Class: "alu"},
	OR:   {Name: "or", Fmt: FmtR, Opcode: opcOp, Funct3: 0b110, Funct7: 0b0000000, Class: "alu"},
	AND:  {Name: "and", Fmt: FmtR, Opcode: opcOp, Funct3: 0b111, Funct7: 0b0000000, Class: "alu"},

	MUL: {Name: "mul", Fmt: FmtR, Opcode: opcOp, Funct3: 0b000, Funct7: 0b0000001, Class: "alu"},
	DIV: {Name: "div", Fmt: FmtR, Opcode: opcOp, Funct3: 0b100, Funct7: 0b0000001, Class: "alu"},
	REM: {Name: "rem", Fmt: FmtR, Opcode: opcOp, Funct3: 0b110, Funct7: 0b0000001, Class: "alu"},

	ECALL:  {Name: "ecall", Fmt: FmtSys, Opcode: opcSystem, Class: "misc"},
	EBREAK: {Name: "ebreak", Fmt: FmtSys, Opcode: opcSystem, Class: "misc"},
}

func init() {
	for op := opInvalid + 1; op < numOps; op++ {
		infos[op].Op = op
		if infos[op].Name == "" {
			panic(fmt.Sprintf("rv32: opcode %d missing metadata", op))
		}
	}
}

// Lookup returns metadata for op.
func Lookup(op Op) (Info, bool) {
	if op <= opInvalid || op >= numOps {
		return Info{}, false
	}
	return infos[op], true
}

// ByName maps a mnemonic to its opcode.
func ByName(name string) (Op, bool) {
	op, ok := byName[name]
	return op, ok
}

var byName = func() map[string]Op {
	m := make(map[string]Op, NumInstructions)
	for op := opInvalid + 1; op < numOps; op++ {
		m[infos[op].Name] = op
	}
	return m
}()

// Instructions returns all opcode metadata in declaration order.
func Instructions() []Info {
	out := make([]Info, 0, NumInstructions)
	for op := opInvalid + 1; op < numOps; op++ {
		out = append(out, infos[op])
	}
	return out
}

// Register numbers and the standard ABI assignments the code generator
// follows. x0 is hardwired to zero.
const (
	NumRegs = 32
	RegZero = 0
	RegRA   = 1 // return address (written by jal/jalr)
	RegSP   = 2 // stack pointer
)

// abiNames maps register numbers to their ABI mnemonics, which both the
// assembler and the disassembler speak.
var abiNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// RegName returns the ABI name of a register.
func RegName(r uint8) string {
	if int(r) < len(abiNames) {
		return abiNames[r]
	}
	return fmt.Sprintf("x%d", r)
}

// regByName resolves "x7", an ABI name, or "fp" to a register number.
func regByName(s string) (uint8, bool) {
	if s == "fp" {
		return 8, true
	}
	for i, n := range abiNames {
		if s == n {
			return uint8(i), true
		}
	}
	if len(s) >= 2 && s[0] == 'x' {
		var n int
		if _, err := fmt.Sscanf(s[1:], "%d", &n); err == nil && n >= 0 && n < NumRegs {
			return uint8(n), true
		}
	}
	return 0, false
}

// Inst is one decoded instruction.
type Inst struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int32 // sign-extended; shamt for FmtIS; upper value for FmtU
}

// Encode packs an instruction into its 32-bit word. Immediates out of
// the format's range are an error.
func Encode(op Op, rd, rs1, rs2 uint8, imm int32) (uint32, error) {
	info, ok := Lookup(op)
	if !ok {
		return 0, fmt.Errorf("rv32: encode of invalid opcode %d", op)
	}
	base := info.Opcode | info.Funct3<<12
	switch info.Fmt {
	case FmtR:
		return base | info.Funct7<<25 | uint32(rd)<<7 | uint32(rs1)<<15 | uint32(rs2)<<20, nil
	case FmtI:
		if imm < -2048 || imm > 2047 {
			return 0, fmt.Errorf("rv32: %s immediate %d exceeds 12 bits", info.Name, imm)
		}
		return base | uint32(rd)<<7 | uint32(rs1)<<15 | uint32(imm)&0xfff<<20, nil
	case FmtIS:
		if imm < 0 || imm > 31 {
			return 0, fmt.Errorf("rv32: %s shift amount %d out of range", info.Name, imm)
		}
		return base | info.Funct7<<25 | uint32(rd)<<7 | uint32(rs1)<<15 | uint32(imm)<<20, nil
	case FmtS:
		if imm < -2048 || imm > 2047 {
			return 0, fmt.Errorf("rv32: %s offset %d exceeds 12 bits", info.Name, imm)
		}
		u := uint32(imm) & 0xfff
		return base | uint32(rs1)<<15 | uint32(rs2)<<20 | u&0x1f<<7 | u>>5<<25, nil
	case FmtB:
		if imm < -4096 || imm > 4095 || imm&1 != 0 {
			return 0, fmt.Errorf("rv32: %s branch offset %d out of range", info.Name, imm)
		}
		u := uint32(imm)
		return base | uint32(rs1)<<15 | uint32(rs2)<<20 |
			(u>>11&1)<<7 | (u>>1&0xf)<<8 | (u>>5&0x3f)<<25 | (u>>12&1)<<31, nil
	case FmtU:
		if imm < 0 || imm > 0xfffff {
			return 0, fmt.Errorf("rv32: %s upper immediate %#x out of range", info.Name, imm)
		}
		return info.Opcode | uint32(rd)<<7 | uint32(imm)<<12, nil
	case FmtJ:
		if imm < -(1<<20) || imm >= 1<<20 || imm&1 != 0 {
			return 0, fmt.Errorf("rv32: %s jump offset %d out of range", info.Name, imm)
		}
		u := uint32(imm)
		return info.Opcode | uint32(rd)<<7 |
			(u>>12&0xff)<<12 | (u>>11&1)<<20 | (u>>1&0x3ff)<<21 | (u>>20&1)<<31, nil
	case FmtSys:
		if op == EBREAK {
			return base | 1<<20, nil
		}
		return base, nil
	}
	return 0, fmt.Errorf("rv32: encode of %s: unknown format", info.Name)
}

// Decode tables, indexed by funct3 and built from infos so the encoder
// and the decoder read one source of truth. opInvalid marks an encoding
// the subset does not define.
var (
	branchOps, loadOps, storeOps, opImmOps [8]Op
	// shiftOps (OP-IMM shifts) and aluOps (OP) are indexed by funct7
	// group first; see funct7Group.
	shiftOps, aluOps [3][8]Op
)

// funct7Group maps the three funct7 values the subset uses to a table
// row: base, alternate (sub/sra/srai) and the M extension.
func funct7Group(f7 uint32) (int, bool) {
	switch f7 {
	case 0b0000000:
		return 0, true
	case 0b0100000:
		return 1, true
	case 0b0000001:
		return 2, true
	}
	return 0, false
}

func init() {
	for op := opInvalid + 1; op < numOps; op++ {
		info := &infos[op]
		g, _ := funct7Group(info.Funct7)
		switch info.Opcode {
		case opcBranch:
			branchOps[info.Funct3] = op
		case opcLoad:
			loadOps[info.Funct3] = op
		case opcStore:
			storeOps[info.Funct3] = op
		case opcOpImm:
			if info.Fmt == FmtIS {
				shiftOps[g][info.Funct3] = op
			} else {
				opImmOps[info.Funct3] = op
			}
		case opcOp:
			aluOps[g][info.Funct3] = op
		}
	}
}

// The two SYSTEM words the subset defines; every other SYSTEM encoding
// (CSR access, nonzero rd/rs1/funct3) is illegal.
const (
	wordECALL  = opcSystem
	wordEBREAK = 1<<20 | opcSystem
)

// Decode unpacks a 32-bit word. Unknown encodings are an error. It is
// table-driven and allocation-free on every legal word: the simulator
// calls it on each predecode miss.
func Decode(w uint32) (Inst, error) {
	opc := w & 0x7f
	rd := uint8(w >> 7 & 0x1f)
	f3 := w >> 12 & 0x7
	rs1 := uint8(w >> 15 & 0x1f)
	rs2 := uint8(w >> 20 & 0x1f)
	f7 := w >> 25 & 0x7f

	switch opc {
	case opcLUI:
		return Inst{Op: LUI, Rd: rd, Imm: int32(w >> 12)}, nil
	case opcAUIPC:
		return Inst{Op: AUIPC, Rd: rd, Imm: int32(w >> 12)}, nil
	case opcJAL:
		immJ := int32(w)>>31<<20 | int32(w>>12&0xff)<<12 | int32(w>>20&1)<<11 | int32(w>>21&0x3ff)<<1
		return Inst{Op: JAL, Rd: rd, Imm: immJ}, nil
	case opcJALR:
		if f3 == 0 {
			return Inst{Op: JALR, Rd: rd, Rs1: rs1, Imm: int32(w) >> 20}, nil
		}
	case opcBranch:
		if op := branchOps[f3]; op != opInvalid {
			immB := int32(w)>>31<<12 | int32(w>>7&1)<<11 | int32(w>>25&0x3f)<<5 | int32(w>>8&0xf)<<1
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immB}, nil
		}
	case opcLoad:
		if op := loadOps[f3]; op != opInvalid {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(w) >> 20}, nil
		}
	case opcStore:
		if op := storeOps[f3]; op != opInvalid {
			immS := int32(w)>>25<<5 | int32(w>>7&0x1f)
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immS}, nil
		}
	case opcOpImm:
		if op := opImmOps[f3]; op != opInvalid {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(w) >> 20}, nil
		}
		if g, ok := funct7Group(f7); ok {
			if op := shiftOps[g][f3]; op != opInvalid {
				return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			}
		}
	case opcOp:
		if g, ok := funct7Group(f7); ok {
			if op := aluOps[g][f3]; op != opInvalid {
				return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
			}
		}
	case opcSystem:
		switch w {
		case wordECALL:
			return Inst{Op: ECALL}, nil
		case wordEBREAK:
			return Inst{Op: EBREAK}, nil
		}
	}
	return Inst{}, fmt.Errorf("rv32: illegal instruction %#08x", w)
}

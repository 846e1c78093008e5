// Package ir is the machine-independent intermediate representation
// shared by the MiniC code generators: a typed three-address code over
// basic blocks, lowered once from the checked AST. Both the RISC I and
// the CISC backend consume it, so every optimization expressed here
// benefits both targets equally — the precondition for a fair ISA
// comparison (see DESIGN.md section 9).
package ir

// Program is a lowered translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*Var      // declaration order, drives data emission
	Strings []StringLit // interned string literals
}

// StringLit is one interned string literal and its data label.
type StringLit struct {
	Label string
	Value string
}

// VarKind distinguishes storage classes.
type VarKind uint8

const (
	VarGlobal VarKind = iota
	VarLocal
	VarParam
)

// Var is a named storage cell: a global, a local or a parameter. The
// backends decide where each one lives (register, frame, absolute);
// the IR only records what lowering knows about it.
type Var struct {
	Name string
	Kind VarKind

	Scalar bool // fits a register (int, char, pointer)
	Char   bool // one-byte storage cell: stores truncate, loads zero-extend
	Size   int  // storage size in bytes (arrays; scalars are 4 or 1)

	// Addressed marks scalars whose address is taken: they must live in
	// memory, never in a register.
	Addressed bool

	ParamSlot int // parameter position for VarParam

	// Global initializers.
	Init    int32
	InitStr string
}

// Func is one function: parameters, locals and a basic-block CFG.
// Blocks[0] is the entry. Temporaries are numbered 0..NTemps-1.
type Func struct {
	Name   string
	Params []*Var
	Locals []*Var // flattened declarations, arrays included
	Blocks []*Block
	NTemps int
	Line   int
}

// NewTemp allocates a fresh temporary and returns its value.
func (f *Func) NewTemp() Value {
	t := f.NTemps
	f.NTemps++
	return Temp(t)
}

// Block is a basic block: straight-line instructions closed by exactly
// one terminator. Name is assigned at creation and stable across
// passes, so IR dumps diff cleanly.
type Block struct {
	Name   string
	Instrs []Instr
	Term   Term
}

// ValKind tags a Value.
type ValKind uint8

const (
	ValInvalid ValKind = iota
	ValConst           // a 32-bit constant
	ValTemp            // a temporary
	ValVar             // a scalar variable (read as operand, written as Dst)
)

// Value is an operand or an instruction destination.
type Value struct {
	Kind ValKind
	C    int32 // ValConst
	Temp int   // ValTemp
	Var  *Var  // ValVar
}

// Const makes a constant value.
func Const(c int32) Value { return Value{Kind: ValConst, C: c} }

// Temp makes a temporary reference.
func Temp(t int) Value { return Value{Kind: ValTemp, Temp: t} }

// VarRef makes a scalar-variable reference.
func VarRef(v *Var) Value { return Value{Kind: ValVar, Var: v} }

// Valid reports whether the value is present (OpStore and void calls
// have no destination; TermReturn may carry no value).
func (v Value) Valid() bool { return v.Kind != ValInvalid }

// Equal reports whether two values name the same constant, temporary
// or variable. Two reads of the same variable in one instruction see
// the same value, so VarRef equality is sound for simplification.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case ValConst:
		return v.C == o.C
	case ValTemp:
		return v.Temp == o.Temp
	case ValVar:
		return v.Var == o.Var
	}
	return true
}

// Op enumerates instruction operators.
type Op uint8

const (
	OpCopy    Op = iota // Dst = A
	OpNeg               // Dst = -A
	OpCom               // Dst = ^A
	OpAdd               // Dst = A + B
	OpSub               // Dst = A - B
	OpMul               // Dst = A * B
	OpDiv               // Dst = A / B (C truncation; divide by zero faults at run time)
	OpMod               // Dst = A % B
	OpAnd               // Dst = A & B
	OpOr                // Dst = A | B
	OpXor               // Dst = A ^ B
	OpShl               // Dst = A << B
	OpShr               // Dst = A >> B (arithmetic; MiniC ints are signed)
	OpAddr              // Dst = address of Var (memory-resident variables only)
	OpAddrStr           // Dst = address of the string literal Label
	OpLoad              // Dst = Mem[A]; Size 1 zero-extends, Size 4 is a word
	OpStore             // Mem[A] = B; Size 1 truncates, Size 4 is a word
	OpCall              // Dst (optional) = Label(Args...)
)

// IsBinary reports whether the op has two value operands (A and B).
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpShr }

// Instr is one three-address instruction.
type Instr struct {
	Op    Op
	Dst   Value // ValTemp or ValVar; invalid for OpStore and void OpCall
	A, B  Value
	Var   *Var    // OpAddr
	Label string  // OpCall callee, OpAddrStr label
	Args  []Value // OpCall
	Size  int     // OpLoad / OpStore: 1 or 4
	Line  int
}

// OperandBuf is scratch space for Operands, declared once per pass and
// passed as buf[:0]: it holds the operands of any instruction or
// terminator except a call with more than eight arguments, for which
// append moves to the heap.
type OperandBuf [8]*Value

// Operands appends pointers to every value the instruction reads to
// buf and returns the result, so passes can rewrite uses in place.
// With an OperandBuf as buf it allocates nothing.
func (i *Instr) Operands(buf []*Value) []*Value {
	if i.A.Valid() {
		buf = append(buf, &i.A)
	}
	if i.B.Valid() {
		buf = append(buf, &i.B)
	}
	for k := range i.Args {
		buf = append(buf, &i.Args[k])
	}
	return buf
}

// TermKind tags a terminator.
type TermKind uint8

const (
	TermJump TermKind = iota
	TermBranch
	TermReturn
)

// Rel is a branch relation.
type Rel uint8

const (
	RelEq Rel = iota
	RelNe
	RelLt
	RelLe
	RelGt
	RelGe
)

// Negate returns the opposite relation.
func (r Rel) Negate() Rel {
	switch r {
	case RelEq:
		return RelNe
	case RelNe:
		return RelEq
	case RelLt:
		return RelGe
	case RelLe:
		return RelGt
	case RelGt:
		return RelLe
	default:
		return RelLt
	}
}

// Eval evaluates the relation on two known constants.
func (r Rel) Eval(a, b int32) bool {
	switch r {
	case RelEq:
		return a == b
	case RelNe:
		return a != b
	case RelLt:
		return a < b
	case RelLe:
		return a <= b
	case RelGt:
		return a > b
	default:
		return a >= b
	}
}

// Term closes a block: an unconditional jump, a fused compare-and-
// branch, or a return.
type Term struct {
	Kind       TermKind
	Rel        Rel
	A, B       Value  // TermBranch operands
	Then, Else *Block // Branch targets; Jump uses Then
	Ret        Value  // TermReturn value; invalid means return 0 / void
	Line       int
}

// Operands appends pointers to every value the terminator reads to buf
// and returns the result; with an OperandBuf as buf it allocates
// nothing.
func (t *Term) Operands(buf []*Value) []*Value {
	switch t.Kind {
	case TermBranch:
		buf = append(buf, &t.A, &t.B)
	case TermReturn:
		if t.Ret.Valid() {
			buf = append(buf, &t.Ret)
		}
	}
	return buf
}

// Succs returns the terminator's successor blocks.
func (t *Term) Succs() []*Block {
	switch t.Kind {
	case TermJump:
		return []*Block{t.Then}
	case TermBranch:
		return []*Block{t.Then, t.Else}
	}
	return nil
}

// Log2 returns the shift amount for a power of two (8 → 3). It is the
// shared helper both lowering and the strength-reduction pass use;
// PowerOfTwo guards it.
func Log2(n int) int {
	s := 0
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// PowerOfTwo reports whether n is a positive power of two.
func PowerOfTwo(n int32) bool { return n > 0 && n&(n-1) == 0 }

package cc

import (
	"risc1/internal/cc/ir"
)

// Lower translates a checked AST into the shared IR. The translation
// is deliberately naive — every constant is materialized into a
// temporary, every variable read becomes a copy — so that -O0 output
// is genuinely unoptimized and every improvement is owed to the
// machine-independent pass pipeline in internal/cc/opt, applied
// identically to both backends.
//
// The one piece of semantics pinned here: shift counts written as
// literals are masked to the 0..31 range the 32-bit machines support,
// so "x << 33" means "x << 1" on both backends at every optimization
// level. Run-time shift counts keep each machine's native behavior
// (RISC I masks, the CISC baseline saturates); see DESIGN.md.
func Lower(prog *Program) (*ir.Program, error) {
	lo := &lowerer{
		prog: prog,
		out:  &ir.Program{},
		vars: make(map[*Symbol]*ir.Var),
	}
	for _, gl := range prog.Globals {
		v := lo.varFor(gl)
		lo.out.Globals = append(lo.out.Globals, v)
	}
	for _, s := range prog.Strings {
		lo.out.Strings = append(lo.out.Strings, ir.StringLit{Label: s.label, Value: s.value})
	}
	for _, fn := range prog.Funcs {
		f, err := lo.lowerFunc(fn)
		if err != nil {
			return nil, err
		}
		lo.out.Funcs = append(lo.out.Funcs, f)
	}
	return lo.out, nil
}

// loopTarget is the break/continue bookkeeping, shared by every
// construct that used to duplicate it across the two generators.
type loopTarget struct {
	brk, cont *ir.Block
}

type lowerer struct {
	prog *Program
	out  *ir.Program
	vars map[*Symbol]*ir.Var

	f     *ir.Func
	cur   *ir.Block
	loops []loopTarget
}

// varFor returns (creating on first use) the IR variable for a symbol.
func (lo *lowerer) varFor(sym *Symbol) *ir.Var {
	if v, ok := lo.vars[sym]; ok {
		return v
	}
	v := &ir.Var{
		Name:      sym.Name,
		Scalar:    sym.Type.IsScalar(),
		Char:      sym.Type.Kind == TypeChar,
		Size:      sym.Type.Size(),
		ParamSlot: sym.ParamSlot,
	}
	switch sym.Kind {
	case SymGlobal:
		v.Kind = ir.VarGlobal
		if sym.Init != nil {
			c, _ := evalConst(sym.Init)
			v.Init = int32(c)
		}
		v.InitStr = sym.InitStr
	case SymParam:
		v.Kind = ir.VarParam
	default:
		v.Kind = ir.VarLocal
	}
	lo.vars[sym] = v
	return v
}

// evalConst folds the constant expressions MiniC accepts as global
// initializers: literals and unary - / ~ over them.
func evalConst(e *Expr) (int64, bool) {
	switch e.Kind {
	case ExprIntLit, ExprCharLit:
		return e.Num, true
	case ExprUnary:
		if v, ok := evalConst(e.X); ok {
			switch e.Op {
			case "-":
				return -v, true
			case "~":
				return ^v, true
			}
		}
	}
	return 0, false
}

func (lo *lowerer) lowerFunc(fn *Symbol) (*ir.Func, error) {
	lo.f = &ir.Func{Name: fn.Name, Line: fn.Line}
	lo.loops = nil
	for _, p := range fn.Params {
		lo.f.Params = append(lo.f.Params, lo.varFor(p))
	}
	for _, l := range fn.Locals {
		lo.f.Locals = append(lo.f.Locals, lo.varFor(l))
	}
	lo.start(lo.newBlock())
	if err := lo.stmt(fn.Body); err != nil {
		return nil, err
	}
	// Fall-off-the-end return (value 0 for int functions).
	lo.term(ir.Term{Kind: ir.TermReturn, Line: fn.Line})
	return lo.f, nil
}

// newBlock allocates a block; it gets its name and its place in the
// layout when started, so nested constructs lay out inline.
func (lo *lowerer) newBlock() *ir.Block { return &ir.Block{} }

// start appends the block to the layout and makes it current.
func (lo *lowerer) start(b *ir.Block) {
	b.Name = blockName(len(lo.f.Blocks))
	lo.f.Blocks = append(lo.f.Blocks, b)
	lo.cur = b
}

func blockName(i int) string {
	return "b" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// term closes the current block. Statements after break/continue/
// return land in a fresh unreachable block, which -O1 removes.
func (lo *lowerer) term(t ir.Term) {
	lo.cur.Term = t
	lo.cur = nil
}

func (lo *lowerer) emit(i ir.Instr) {
	lo.cur.Instrs = append(lo.cur.Instrs, i)
}

// temp allocates a fresh temporary.
func (lo *lowerer) temp() ir.Value { return lo.f.NewTemp() }

// loadConst materializes a constant into a temporary — the naive
// baseline every constant takes at -O0.
func (lo *lowerer) loadConst(c int32, line int) ir.Value {
	t := lo.temp()
	lo.emit(ir.Instr{Op: ir.OpCopy, Dst: t, A: ir.Const(c), Line: line})
	return t
}

func (lo *lowerer) stmt(s *Stmt) error {
	switch s.Kind {
	case StmtBlock, StmtGroup:
		for _, sub := range s.Body {
			if err := lo.stmt(sub); err != nil {
				return err
			}
		}
		return nil

	case StmtDecl:
		if s.DeclInit == nil {
			return nil
		}
		v, err := lo.expr(s.DeclInit)
		if err != nil {
			return err
		}
		lo.emit(ir.Instr{Op: ir.OpCopy, Dst: ir.VarRef(lo.varFor(s.Decl)), A: v, Line: s.Line})
		return nil

	case StmtExpr:
		_, err := lo.expr(s.Expr)
		return err

	case StmtIf:
		thenB, endB := lo.newBlock(), lo.newBlock()
		elseB := endB
		if s.Else != nil {
			elseB = lo.newBlock()
		}
		if err := lo.cond(s.Expr, thenB, elseB); err != nil {
			return err
		}
		lo.start(thenB)
		if err := lo.stmt(s.Then); err != nil {
			return err
		}
		lo.term(ir.Term{Kind: ir.TermJump, Then: endB, Line: s.Line})
		if s.Else != nil {
			lo.start(elseB)
			if err := lo.stmt(s.Else); err != nil {
				return err
			}
			lo.term(ir.Term{Kind: ir.TermJump, Then: endB, Line: s.Line})
		}
		lo.start(endB)
		return nil

	case StmtWhile:
		headB, bodyB, endB := lo.newBlock(), lo.newBlock(), lo.newBlock()
		lo.term(ir.Term{Kind: ir.TermJump, Then: headB, Line: s.Line})
		lo.start(headB)
		if err := lo.cond(s.Expr, bodyB, endB); err != nil {
			return err
		}
		lo.start(bodyB)
		lo.loops = append(lo.loops, loopTarget{brk: endB, cont: headB})
		err := lo.stmt(s.Then)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if err != nil {
			return err
		}
		lo.term(ir.Term{Kind: ir.TermJump, Then: headB, Line: s.Line})
		lo.start(endB)
		return nil

	case StmtFor:
		if s.Init != nil {
			if err := lo.stmt(s.Init); err != nil {
				return err
			}
		}
		headB, bodyB, postB, endB := lo.newBlock(), lo.newBlock(), lo.newBlock(), lo.newBlock()
		lo.term(ir.Term{Kind: ir.TermJump, Then: headB, Line: s.Line})
		lo.start(headB)
		if s.Cond != nil {
			if err := lo.cond(s.Cond, bodyB, endB); err != nil {
				return err
			}
		} else {
			lo.term(ir.Term{Kind: ir.TermJump, Then: bodyB, Line: s.Line})
		}
		lo.start(bodyB)
		lo.loops = append(lo.loops, loopTarget{brk: endB, cont: postB})
		err := lo.stmt(s.Then)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if err != nil {
			return err
		}
		lo.term(ir.Term{Kind: ir.TermJump, Then: postB, Line: s.Line})
		lo.start(postB)
		if s.Post != nil {
			if err := lo.stmt(s.Post); err != nil {
				return err
			}
		}
		lo.term(ir.Term{Kind: ir.TermJump, Then: headB, Line: s.Line})
		lo.start(endB)
		return nil

	case StmtReturn:
		t := ir.Term{Kind: ir.TermReturn, Line: s.Line}
		if s.Expr != nil {
			v, err := lo.expr(s.Expr)
			if err != nil {
				return err
			}
			t.Ret = v
		}
		lo.term(t)
		lo.start(lo.newBlock())
		return nil

	case StmtBreak, StmtContinue:
		if len(lo.loops) == 0 {
			return errf(s.Line, "break/continue outside a loop")
		}
		tgt := lo.loops[len(lo.loops)-1].brk
		if s.Kind == StmtContinue {
			tgt = lo.loops[len(lo.loops)-1].cont
		}
		lo.term(ir.Term{Kind: ir.TermJump, Then: tgt, Line: s.Line})
		lo.start(lo.newBlock())
		return nil
	}
	return errf(s.Line, "internal: unhandled statement kind %d", s.Kind)
}

// memSize returns the access width for a loaded or stored cell.
func memSize(t *Type) int {
	if t.Kind == TypeChar {
		return 1
	}
	return 4
}

// expr lowers an expression and returns the temporary holding it.
func (lo *lowerer) expr(e *Expr) (ir.Value, error) {
	switch e.Kind {
	case ExprIntLit, ExprCharLit:
		return lo.loadConst(int32(e.Num), e.Line), nil

	case ExprStrLit:
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpAddrStr, Dst: t, Label: e.StrLabel, Line: e.Line})
		return t, nil

	case ExprIdent:
		if e.Sym.Type.Kind == TypeArray {
			return lo.addr(e) // arrays decay to their address
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpCopy, Dst: t, A: ir.VarRef(lo.varFor(e.Sym)), Line: e.Line})
		return t, nil

	case ExprUnary:
		switch e.Op {
		case "-", "~":
			x, err := lo.expr(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			op := ir.OpNeg
			if e.Op == "~" {
				op = ir.OpCom
			}
			t := lo.temp()
			lo.emit(ir.Instr{Op: op, Dst: t, A: x, Line: e.Line})
			return t, nil
		case "!":
			return lo.materializeCond(e)
		case "*":
			a, err := lo.expr(e.X)
			if err != nil {
				return ir.Value{}, err
			}
			t := lo.temp()
			lo.emit(ir.Instr{Op: ir.OpLoad, Dst: t, A: a, Size: memSize(e.Type), Line: e.Line})
			return t, nil
		case "&":
			return lo.addr(e.X)
		}

	case ExprBinary:
		switch e.Op {
		case "&&", "||", "==", "!=", "<", "<=", ">", ">=":
			return lo.materializeCond(e)
		}
		if decay(e.X.Type).Kind == TypePtr || decay(e.Y.Type).Kind == TypePtr {
			return lo.pointerArith(e)
		}
		x, err := lo.expr(e.X)
		if err != nil {
			return ir.Value{}, err
		}
		y, err := lo.shiftOperand(e.Op, e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: binOp(e.Op), Dst: t, A: x, B: y, Line: e.Line})
		return t, nil

	case ExprAssign:
		return lo.assign(e)

	case ExprIndex:
		a, err := lo.addr(e)
		if err != nil {
			return ir.Value{}, err
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpLoad, Dst: t, A: a, Size: memSize(e.Type), Line: e.Line})
		return t, nil

	case ExprCall:
		args := make([]ir.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := lo.expr(a)
			if err != nil {
				return ir.Value{}, err
			}
			args[i] = v
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpCall, Dst: t, Label: e.Name, Args: args, Line: e.Line})
		return t, nil
	}
	return ir.Value{}, errf(e.Line, "internal: unhandled expression kind %d", e.Kind)
}

// shiftOperand lowers the right operand of a binary operator. Literal
// shift counts are masked to 0..31 here so both backends agree on
// out-of-range constants at every optimization level.
func (lo *lowerer) shiftOperand(op string, y *Expr) (ir.Value, error) {
	if (op == "<<" || op == ">>") && (y.Kind == ExprIntLit || y.Kind == ExprCharLit) {
		return lo.loadConst(int32(y.Num)&31, y.Line), nil
	}
	return lo.expr(y)
}

// binOp maps an arithmetic operator to its IR op.
func binOp(op string) ir.Op {
	switch op {
	case "+":
		return ir.OpAdd
	case "-":
		return ir.OpSub
	case "*":
		return ir.OpMul
	case "/":
		return ir.OpDiv
	case "%":
		return ir.OpMod
	case "&":
		return ir.OpAnd
	case "|":
		return ir.OpOr
	case "^":
		return ir.OpXor
	case "<<":
		return ir.OpShl
	default:
		return ir.OpShr
	}
}

// scale multiplies an index by a power-of-two element size.
func (lo *lowerer) scale(idx ir.Value, size, line int) ir.Value {
	sh := ir.Log2(size)
	if sh == 0 {
		return idx
	}
	c := lo.loadConst(int32(sh), line)
	t := lo.temp()
	lo.emit(ir.Instr{Op: ir.OpShl, Dst: t, A: idx, B: c, Line: line})
	return t
}

// pointerArith lowers ptr±int (scaled) and ptr-ptr (descaled).
func (lo *lowerer) pointerArith(e *Expr) (ir.Value, error) {
	xt, yt := decay(e.X.Type), decay(e.Y.Type)
	switch {
	case xt.Kind == TypePtr && yt.Kind == TypePtr: // ptr - ptr
		x, err := lo.expr(e.X)
		if err != nil {
			return ir.Value{}, err
		}
		y, err := lo.expr(e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		d := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpSub, Dst: d, A: x, B: y, Line: e.Line})
		if sh := ir.Log2(xt.Elem.Size()); sh > 0 {
			c := lo.loadConst(int32(sh), e.Line)
			t := lo.temp()
			lo.emit(ir.Instr{Op: ir.OpShr, Dst: t, A: d, B: c, Line: e.Line})
			return t, nil
		}
		return d, nil

	case xt.Kind == TypePtr: // ptr ± int
		base, err := lo.expr(e.X)
		if err != nil {
			return ir.Value{}, err
		}
		idx, err := lo.expr(e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		op := ir.OpAdd
		if e.Op == "-" {
			op = ir.OpSub
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: op, Dst: t, A: base, B: lo.scale(idx, xt.Elem.Size(), e.Line), Line: e.Line})
		return t, nil

	default: // int + ptr
		idx, err := lo.expr(e.X)
		if err != nil {
			return ir.Value{}, err
		}
		base, err := lo.expr(e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpAdd, Dst: t, A: base, B: lo.scale(idx, yt.Elem.Size(), e.Line), Line: e.Line})
		return t, nil
	}
}

// addr lowers the address of an lvalue or array.
func (lo *lowerer) addr(e *Expr) (ir.Value, error) {
	switch e.Kind {
	case ExprIdent:
		v := lo.varFor(e.Sym)
		if v.Scalar && v.Kind != ir.VarGlobal {
			// Force the local or parameter out of the register file;
			// the backends check this flag before allocating, and the
			// optimizer treats the cell as reachable through memory.
			v.Addressed = true
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpAddr, Dst: t, Var: v, Line: e.Line})
		return t, nil
	case ExprIndex:
		base, err := lo.expr(e.X) // pointer value or array address
		if err != nil {
			return ir.Value{}, err
		}
		idx, err := lo.expr(e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpAdd, Dst: t, A: base, B: lo.scale(idx, e.Type.Size(), e.Line), Line: e.Line})
		return t, nil
	case ExprUnary:
		if e.Op == "*" {
			return lo.expr(e.X)
		}
	}
	return ir.Value{}, errf(e.Line, "internal: not an addressable expression")
}

// assign lowers = and the compound assignments; the expression's value
// is the stored value (untruncated, as the AST generators did).
func (lo *lowerer) assign(e *Expr) (ir.Value, error) {
	binop := ""
	if len(e.Op) > 1 {
		binop = e.Op[:len(e.Op)-1]
	}
	lhs := e.X

	// Scalar variable: read/modify/write through the variable cell.
	if lhs.Kind == ExprIdent && lhs.Sym.Type.IsScalar() {
		v := lo.varFor(lhs.Sym)
		if binop == "" {
			val, err := lo.expr(e.Y)
			if err != nil {
				return ir.Value{}, err
			}
			lo.emit(ir.Instr{Op: ir.OpCopy, Dst: ir.VarRef(v), A: val, Line: e.Line})
			return val, nil
		}
		old := lo.temp()
		lo.emit(ir.Instr{Op: ir.OpCopy, Dst: old, A: ir.VarRef(v), Line: e.Line})
		comb, err := lo.combine(binop, lhs, old, e.Y, e.Line)
		if err != nil {
			return ir.Value{}, err
		}
		lo.emit(ir.Instr{Op: ir.OpCopy, Dst: ir.VarRef(v), A: comb, Line: e.Line})
		return comb, nil
	}

	// Memory lvalue: compute the address once.
	addr, err := lo.lvalueAddr(lhs)
	if err != nil {
		return ir.Value{}, err
	}
	sz := memSize(lhs.Type)
	if binop == "" {
		val, err := lo.expr(e.Y)
		if err != nil {
			return ir.Value{}, err
		}
		lo.emit(ir.Instr{Op: ir.OpStore, A: addr, B: val, Size: sz, Line: e.Line})
		return val, nil
	}
	old := lo.temp()
	lo.emit(ir.Instr{Op: ir.OpLoad, Dst: old, A: addr, Size: sz, Line: e.Line})
	comb, err := lo.combine(binop, lhs, old, e.Y, e.Line)
	if err != nil {
		return ir.Value{}, err
	}
	lo.emit(ir.Instr{Op: ir.OpStore, A: addr, B: comb, Size: sz, Line: e.Line})
	return comb, nil
}

// combine computes old <binop> rhs, scaling rhs for pointer += / -=.
func (lo *lowerer) combine(binop string, lhs *Expr, old ir.Value, rhs *Expr, line int) (ir.Value, error) {
	y, err := lo.shiftOperand(binop, rhs)
	if err != nil {
		return ir.Value{}, err
	}
	if decay(lhs.Type).Kind == TypePtr {
		y = lo.scale(y, decay(lhs.Type).Elem.Size(), line)
	}
	t := lo.temp()
	lo.emit(ir.Instr{Op: binOp(binop), Dst: t, A: old, B: y, Line: line})
	return t, nil
}

// lvalueAddr is addr restricted to assignable expressions.
func (lo *lowerer) lvalueAddr(e *Expr) (ir.Value, error) {
	switch e.Kind {
	case ExprIdent, ExprIndex:
		return lo.addr(e)
	case ExprUnary:
		if e.Op == "*" {
			return lo.expr(e.X)
		}
	}
	return ir.Value{}, errf(e.Line, "internal: not an lvalue")
}

// cond lowers a boolean context: control transfers to thenB when e is
// true, elseB when false. Short-circuit operators become CFG edges.
func (lo *lowerer) cond(e *Expr, thenB, elseB *ir.Block) error {
	switch {
	case e.Kind == ExprUnary && e.Op == "!":
		return lo.cond(e.X, elseB, thenB)

	case e.Kind == ExprBinary && (e.Op == "&&" || e.Op == "||"):
		mid := lo.newBlock()
		if e.Op == "&&" {
			if err := lo.cond(e.X, mid, elseB); err != nil {
				return err
			}
		} else {
			if err := lo.cond(e.X, thenB, mid); err != nil {
				return err
			}
		}
		lo.start(mid)
		return lo.cond(e.Y, thenB, elseB)

	case e.Kind == ExprBinary && isComparison(e.Op):
		x, err := lo.expr(e.X)
		if err != nil {
			return err
		}
		y, err := lo.expr(e.Y)
		if err != nil {
			return err
		}
		lo.term(ir.Term{Kind: ir.TermBranch, Rel: rel(e.Op), A: x, B: y,
			Then: thenB, Else: elseB, Line: e.Line})
		return nil

	default:
		v, err := lo.expr(e)
		if err != nil {
			return err
		}
		z := lo.loadConst(0, e.Line)
		lo.term(ir.Term{Kind: ir.TermBranch, Rel: ir.RelNe, A: v, B: z,
			Then: thenB, Else: elseB, Line: e.Line})
		return nil
	}
}

func isComparison(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func rel(op string) ir.Rel {
	switch op {
	case "==":
		return ir.RelEq
	case "!=":
		return ir.RelNe
	case "<":
		return ir.RelLt
	case "<=":
		return ir.RelLe
	case ">":
		return ir.RelGt
	default:
		return ir.RelGe
	}
}

// materializeCond turns a boolean expression into 0/1.
func (lo *lowerer) materializeCond(e *Expr) (ir.Value, error) {
	t := lo.temp()
	tB, fB, join := lo.newBlock(), lo.newBlock(), lo.newBlock()
	if err := lo.cond(e, tB, fB); err != nil {
		return ir.Value{}, err
	}
	lo.start(tB)
	lo.emit(ir.Instr{Op: ir.OpCopy, Dst: t, A: ir.Const(1), Line: e.Line})
	lo.term(ir.Term{Kind: ir.TermJump, Then: join, Line: e.Line})
	lo.start(fB)
	lo.emit(ir.Instr{Op: ir.OpCopy, Dst: t, A: ir.Const(0), Line: e.Line})
	lo.term(ir.Term{Kind: ir.TermJump, Then: join, Line: e.Line})
	lo.start(join)
	return t, nil
}

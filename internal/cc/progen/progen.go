// Package progen generates random well-typed MiniC programs together
// with their expected results, computed by a Go mirror with int32
// semantics. It is the shared corpus generator behind the compiler's
// differential fuzz tests (internal/cc) and the batch-execution
// engine's cross-job leakage test (internal/exec): every generated
// program stores its value in the global "result" and must produce the
// same word on all three simulators at both optimization levels.
//
// The package depends on nothing in the tool chain, so test packages on
// either side of the compiler/engine boundary can import it freely.
package progen

import (
	"fmt"
	"math/rand"
)

// expr is a generated expression and its Go-evaluated value.
type expr struct {
	src string
	val int32
}

// genExpr builds a random expression over the variables in vars. Every
// operation mirrors MiniC's int32 semantics exactly (wrap-around
// arithmetic, shifts by literal counts, division by nonzero literals).
func genExpr(r *rand.Rand, depth int, vars map[string]int32) expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0: // variable
			names := []string{"a", "b", "c"}
			n := names[r.Intn(len(names))]
			return expr{src: n, val: vars[n]}
		default: // literal
			v := int32(r.Intn(2001) - 1000)
			return expr{src: fmt.Sprintf("(%d)", v), val: v}
		}
	}
	x := genExpr(r, depth-1, vars)
	// Unary sometimes.
	if r.Intn(6) == 0 {
		switch r.Intn(3) {
		case 0:
			return expr{src: "(-" + x.src + ")", val: -x.val}
		case 1:
			return expr{src: "(~" + x.src + ")", val: ^x.val}
		default:
			v := int32(0)
			if x.val == 0 {
				v = 1
			}
			return expr{src: "(!" + x.src + ")", val: v}
		}
	}
	y := genExpr(r, depth-1, vars)
	b := func(op string, v int32) expr {
		return expr{src: "(" + x.src + op + y.src + ")", val: v}
	}
	boolVal := func(cond bool) int32 {
		if cond {
			return 1
		}
		return 0
	}
	switch r.Intn(16) {
	case 0:
		return b("+", x.val+y.val)
	case 1:
		return b("-", x.val-y.val)
	case 2:
		return b("*", x.val*y.val)
	case 3: // division by a nonzero literal
		d := int32(r.Intn(40) + 1)
		if r.Intn(2) == 0 {
			d = -d
		}
		return expr{src: fmt.Sprintf("(%s/(%d))", x.src, d), val: x.val / d}
	case 4: // modulo by a nonzero literal
		d := int32(r.Intn(40) + 1)
		return expr{src: fmt.Sprintf("(%s%%(%d))", x.src, d), val: x.val % d}
	case 5:
		return b("&", x.val&y.val)
	case 6:
		return b("|", x.val|y.val)
	case 7:
		return b("^", x.val^y.val)
	case 8: // shift by a literal 0..15
		sh := r.Intn(16)
		return expr{src: fmt.Sprintf("(%s<<%d)", x.src, sh), val: x.val << uint(sh)}
	case 9:
		sh := r.Intn(16)
		return expr{src: fmt.Sprintf("(%s>>%d)", x.src, sh), val: x.val >> uint(sh)}
	case 10:
		return b("==", boolVal(x.val == y.val))
	case 11:
		return b("!=", boolVal(x.val != y.val))
	case 12:
		return b("<", boolVal(x.val < y.val))
	case 13:
		return b(">=", boolVal(x.val >= y.val))
	case 14:
		return b("&&", boolVal(x.val != 0 && y.val != 0))
	default:
		return b("||", boolVal(x.val != 0 || y.val != 0))
	}
}

// ExprProgram generates a straight-line program computing one random
// expression over three initialized variables, sometimes routed through
// a function call to exercise the parameter-passing conventions.
func ExprProgram(r *rand.Rand) (src string, want int32) {
	vars := map[string]int32{
		"a": int32(r.Intn(4001) - 2000),
		"b": int32(r.Intn(4001) - 2000),
		"c": int32(r.Intn(200) - 100),
	}
	e := genExpr(r, 4, vars)
	exprSrc := e.src
	if r.Intn(2) == 0 {
		exprSrc = "pass(" + exprSrc + ")"
	}
	src = fmt.Sprintf(`
int result;
int pass(int v) { return v; }
int main() {
	int a; int b; int c;
	a = %d; b = %d; c = %d;
	result = %s;
	return 0;
}
`, vars["a"], vars["b"], vars["c"], exprSrc)
	return src, e.val
}

// LoopProgram generates a randomized loop/condition state machine: a
// small iteration whose Go mirror must agree after a bounded number of
// steps. It exercises control flow, division and comparison chains.
func LoopProgram(r *rand.Rand) (src string, want int32) {
	mul := int32(r.Intn(9) - 4)
	add := int32(r.Intn(100) - 50)
	mask := int32(r.Intn(255) + 1)
	iters := int32(r.Intn(50) + 1)
	src = fmt.Sprintf(`
int result;
int main() {
	int i; int s;
	s = 1;
	for (i = 0; i < %d; i = i + 1) {
		s = s * (%d) + (%d);
		if (s & %d) { s = s - i; } else { s = s + i; }
		while (s > 100000) { s = s / 3; }
		while (s < -100000) { s = s / 5; }
	}
	result = s;
	return 0;
}
`, iters, mul, add, mask)
	s := int32(1)
	for i := int32(0); i < iters; i++ {
		s = s*mul + add
		if s&mask != 0 {
			s -= i
		} else {
			s += i
		}
		for s > 100000 {
			s = s / 3
		}
		for s < -100000 {
			s = s / 5
		}
	}
	return src, s
}

// CallProgram generates a recursive accumulator over a random branch
// structure — a call-heavy program that moves the register-window
// machinery (spills and refills) so cross-job leakage through the
// save-stack region would surface.
func CallProgram(r *rand.Rand) (src string, want int32) {
	depth := int32(r.Intn(6) + 3)
	step := int32(r.Intn(20) - 10)
	seed := int32(r.Intn(100))
	src = fmt.Sprintf(`
int result;
int walk(int n, int acc) {
	if (n == 0) return acc;
	if (acc & 1) return walk(n - 1, acc * 3 + (%d));
	return walk(n - 1, acc + n * (%d));
}
int main() {
	result = walk(%d, %d);
	return 0;
}
`, step, step, depth, seed)
	var walk func(n, acc int32) int32
	walk = func(n, acc int32) int32 {
		if n == 0 {
			return acc
		}
		if acc&1 != 0 {
			return walk(n-1, acc*3+step)
		}
		return walk(n-1, acc+n*step)
	}
	return src, walk(depth, seed)
}

// Program generates one program of a random kind — the entry point for
// corpus-style consumers that just want variety.
func Program(r *rand.Rand) (src string, want int32) {
	switch r.Intn(3) {
	case 0:
		return ExprProgram(r)
	case 1:
		return LoopProgram(r)
	default:
		return CallProgram(r)
	}
}

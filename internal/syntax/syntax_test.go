package syntax

import (
	"strings"
	"testing"
	"testing/quick"
)

func scan(t *testing.T, line string) []Token {
	t.Helper()
	toks, err := ScanLine(nil, line, 1)
	if err != nil {
		t.Fatalf("scan %q: %v", line, err)
	}
	return toks
}

func TestScanBasics(t *testing.T) {
	toks := scan(t, `add r1, r2, 0x1F ; comment`)
	kinds := []Kind{Ident, Ident, Punct, Ident, Punct, Number}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: kind %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[5].Num != 0x1f {
		t.Errorf("hex literal = %d", toks[5].Num)
	}
}

func TestScanCommentStyles(t *testing.T) {
	for _, line := range []string{"; whole line", "# whole line", "  \t "} {
		if toks := scan(t, line); len(toks) != 0 {
			t.Errorf("%q should produce no tokens, got %v", line, toks)
		}
	}
}

func TestScanStringEscapes(t *testing.T) {
	toks := scan(t, `.ascii "a\n\t\0\\\"z"`)
	if len(toks) != 2 || toks[1].Kind != String {
		t.Fatalf("tokens: %+v", toks)
	}
	if toks[1].Text != "a\n\t\x00\\\"z" {
		t.Errorf("string = %q", toks[1].Text)
	}
	if _, err := ScanLine(nil, `"bad \q"`, 1); err == nil {
		t.Error("unknown escape should fail")
	}
	if _, err := ScanLine(nil, `"unterminated`, 1); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestScanCharLiterals(t *testing.T) {
	toks := scan(t, `'A' '\n' '\''`)
	want := []int64{'A', '\n', '\''}
	if len(toks) != 3 {
		t.Fatalf("tokens: %+v", toks)
	}
	for i, v := range want {
		if toks[i].Kind != Char || toks[i].Num != v {
			t.Errorf("char %d = %+v, want %d", i, toks[i], v)
		}
	}
	if _, err := ScanLine(nil, `'ab'`, 1); err == nil {
		t.Error("two-character literal should fail")
	}
}

func TestParseNumberForms(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "42": 42, "0x10": 16, "0XfF": 255, "0b101": 5,
	}
	for s, want := range cases {
		got, err := ParseNumber(s)
		if err != nil || got != want {
			t.Errorf("ParseNumber(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"0b", "0b12"} {
		if _, err := ParseNumber(s); err == nil {
			t.Errorf("ParseNumber(%q) should fail", s)
		}
	}
}

func evalStr(t *testing.T, src string, syms map[string]uint32) int64 {
	t.Helper()
	toks, err := ScanLine(nil, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &Parser{Toks: toks, Line: 1}
	e, err := p.Parse()
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := e.Eval(syms)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestExprPrecedence(t *testing.T) {
	syms := map[string]uint32{"x": 10}
	cases := map[string]int64{
		"1+2*3":   7,
		"(1+2)*3": 9,
		"10-3-2":  5,
		"1<<4|1":  17,
		"6&3^1":   3,
		"100/7%5": 4,
		"-x+1":    -9,
		"~0&0xff": 255,
		"x*x":     100,
		"1+2<<3":  24, // shift binds looser than +
		"'A'+1":   66,
		"2*-3":    -6,
	}
	for src, want := range cases {
		if got := evalStr(t, src, syms); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	bad := []string{"", "1+", "(1", "1/0", "5%0", "undefined_name", ")", "1 @ 2"}
	for _, src := range bad {
		toks, err := ScanLine(nil, src, 1)
		if err != nil {
			continue
		}
		p := &Parser{Toks: toks, Line: 1}
		e, err := p.Parse()
		if err != nil {
			continue
		}
		if _, err := e.Eval(map[string]uint32{}); err == nil {
			// "1 @ 2" parses the leading 1 and stops; that is the
			// caller's trailing-token problem, not an eval error.
			if p.Pos == len(toks) {
				t.Errorf("%q: expected an error somewhere", src)
			}
		}
	}
}

func TestLiteralValue(t *testing.T) {
	toks, _ := ScanLine(nil, "-42", 1)
	p := &Parser{Toks: toks, Line: 1}
	e, _ := p.Parse()
	if v, ok := LiteralValue(e); !ok || v != -42 {
		t.Errorf("LiteralValue(-42) = %d, %v", v, ok)
	}
	toks, _ = ScanLine(nil, "~1", 1)
	p = &Parser{Toks: toks, Line: 1}
	e, _ = p.Parse()
	if v, ok := LiteralValue(e); !ok || v != -2 {
		t.Errorf("LiteralValue(~1) = %d, %v", v, ok)
	}
	toks, _ = ScanLine(nil, "sym", 1)
	p = &Parser{Toks: toks, Line: 1}
	e, _ = p.Parse()
	if _, ok := LiteralValue(e); ok {
		t.Error("symbols are not literals")
	}
}

func TestErrorType(t *testing.T) {
	err := Errorf(7, "boom %d", 42)
	if !strings.Contains(err.Error(), "line 7") || !strings.Contains(err.Error(), "boom 42") {
		t.Errorf("error format: %v", err)
	}
}

// Property: the expression parser agrees with a tiny independent
// evaluator over randomly generated arithmetic expressions.
func TestExprRandomProperty(t *testing.T) {
	type node struct {
		s string
		v int64
	}
	build := func(seed int64) node {
		// A deterministic pseudo-random expression over + - * and parens.
		x := seed
		next := func(n int64) int64 {
			x = x*6364136223846793005 + 1442695040888963407
			r := (x >> 33) % n
			if r < 0 {
				r += n
			}
			return r
		}
		var gen func(depth int) node
		gen = func(depth int) node {
			if depth == 0 || next(3) == 0 {
				v := next(100)
				return node{s: itoa(v), v: v}
			}
			a := gen(depth - 1)
			b := gen(depth - 1)
			switch next(3) {
			case 0:
				return node{s: "(" + a.s + "+" + b.s + ")", v: a.v + b.v}
			case 1:
				return node{s: "(" + a.s + "-" + b.s + ")", v: a.v - b.v}
			default:
				return node{s: "(" + a.s + "*" + b.s + ")", v: a.v * b.v}
			}
		}
		return gen(4)
	}
	f := func(seed int64) bool {
		n := build(seed)
		toks, err := ScanLine(nil, n.s, 1)
		if err != nil {
			return false
		}
		p := &Parser{Toks: toks, Line: 1}
		e, err := p.Parse()
		if err != nil {
			return false
		}
		v, err := e.Eval(nil)
		return err == nil && v == n.v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

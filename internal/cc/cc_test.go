package cc

import (
	"strings"
	"testing"

	"risc1/internal/cpu"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// runRISC compiles and executes src on the RISC I simulator, returning
// the machine for inspection. The value of the global named "result" is
// the usual check.
func runRISC(t *testing.T, src string, o Options) *cpu.CPU {
	t.Helper()
	prog, text, _, err := CompileRISC(src, o)
	if err != nil {
		t.Fatalf("compile risc: %v\n%s", err, text)
	}
	c := cpu.New(cpu.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("risc run: %v\nassembly:\n%s", err, text)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("risc assembly:\n%s", text)
		}
	})
	riscSyms = prog.Symbols
	return c
}

var riscSyms map[string]uint32
var vaxSyms map[string]uint32
var rv32Syms map[string]uint32

func riscGlobal(t *testing.T, c *cpu.CPU, name string) int32 {
	t.Helper()
	addr, ok := riscSyms[name]
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	v, err := c.Mem.LoadWord(addr)
	if err != nil {
		t.Fatal(err)
	}
	return int32(v)
}

func runVAXsrc(t *testing.T, src string, o Options) *vax.CPU {
	t.Helper()
	prog, text, _, err := CompileVAX(src, o)
	if err != nil {
		t.Fatalf("compile vax: %v\n%s", err, text)
	}
	c := vax.New(vax.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("vax run: %v\nassembly:\n%s", err, text)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("vax assembly:\n%s", text)
		}
	})
	vaxSyms = prog.Symbols
	return c
}

func vaxGlobal(t *testing.T, c *vax.CPU, name string) int32 {
	t.Helper()
	addr, ok := vaxSyms[name]
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	v, err := c.Mem.LoadWord(addr)
	if err != nil {
		t.Fatal(err)
	}
	return int32(v)
}

func runRV32src(t *testing.T, src string, o Options) *rv32.CPU {
	t.Helper()
	prog, text, _, err := CompileRV32(src, o)
	if err != nil {
		t.Fatalf("compile rv32: %v\n%s", err, text)
	}
	c := rv32.New(rv32.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("rv32 run: %v\nassembly:\n%s", err, text)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("rv32 assembly:\n%s", text)
		}
	})
	rv32Syms = prog.Symbols
	return c
}

func rv32Global(t *testing.T, c *rv32.CPU, name string) int32 {
	t.Helper()
	addr, ok := rv32Syms[name]
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	v, err := c.Mem.LoadWord(addr)
	if err != nil {
		t.Fatal(err)
	}
	return int32(v)
}

// checkBoth runs src on all three machines at both optimization levels
// and asserts the global "result".
func checkBoth(t *testing.T, src string, want int32) {
	t.Helper()
	for _, lvl := range []int{0, 1} {
		r := runRISC(t, src, Options{Opt: lvl})
		if got := riscGlobal(t, r, "result"); got != want {
			t.Errorf("risc -O%d result = %d, want %d", lvl, got, want)
		}
		ro := runRISC(t, src, Options{Opt: lvl, DelaySlots: true})
		if got := riscGlobal(t, ro, "result"); got != want {
			t.Errorf("risc -O%d (delay slots) result = %d, want %d", lvl, got, want)
		}
		v := runVAXsrc(t, src, Options{Opt: lvl})
		if got := vaxGlobal(t, v, "result"); got != want {
			t.Errorf("vax -O%d result = %d, want %d", lvl, got, want)
		}
		m := runRV32src(t, src, Options{Opt: lvl})
		if got := rv32Global(t, m, "result"); got != want {
			t.Errorf("rv32 -O%d result = %d, want %d", lvl, got, want)
		}
	}
}

// TestFrontendRefusesOptLevel: a level other than 0 or 1 is an error
// from the frontend itself, so every MiniC path refuses it, whatever
// its caller checked.
func TestFrontendRefusesOptLevel(t *testing.T) {
	src := "int result; int main() { result = 42; return 0; }"
	for _, level := range []int{-1, 2, 7} {
		if _, _, err := Frontend(src, level); err == nil || err.Error() != CheckOpt(level).Error() {
			t.Errorf("Frontend at level %d: err = %v, want %v", level, err, CheckOpt(level))
		}
		if _, _, _, err := CompileRV32(src, Options{Opt: level}); err == nil {
			t.Errorf("CompileRV32 at level %d: no error", level)
		}
	}
	for _, level := range []int{0, 1} {
		if _, _, err := Frontend(src, level); err != nil {
			t.Errorf("Frontend at level %d: %v", level, err)
		}
	}
}

func TestArithmetic(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	result = (3 + 4) * 5 - 20 / 4 + 17 % 5;
	return 0;
}
`, 7*5-5+2)
}

func TestNegativeDivMod(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int a; int b;
	a = -17; b = 5;
	result = a / b * 1000 + a % b;  // C: -3 and -2
	return 0;
}
`, -3000-2)
}

func TestUnaryOps(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int x;
	x = 5;
	result = -x + ~x + !x + !!x;   // -5 + -6 + 0 + 1
	return 0;
}
`, -10)
}

func TestShiftAndBitwise(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int a;
	a = 0xf0;
	result = (a << 4) + (a >> 2) + (a & 0x30) + (a | 7) + (a ^ 0xff);
	return 0;
}
`, 0xf00+0x3c+0x30+0xf7+0x0f)
}

func TestComparisonValues(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int a; int b;
	a = 3; b = 7;
	result = (a < b) * 1 + (a > b) * 10 + (a == 3) * 100 + (a != b) * 1000
	       + (b <= 7) * 10000 + (b >= 8) * 100000;
	return 0;
}
`, 1+100+1000+10000)
}

func TestShortCircuit(t *testing.T) {
	checkBoth(t, `
int result;
int hits;
int bump() { hits = hits + 1; return 1; }
int main() {
	int a;
	a = 0;
	if (a && bump()) { result = 111; }
	if (a || bump()) { result = result + 1; }
	result = result * 10 + hits;
	return 0;
}
`, 11)
}

func TestWhileAndFor(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int i; int s;
	s = 0;
	for (i = 1; i <= 10; i = i + 1) s = s + i;
	while (i > 0) { s = s + 1; i = i - 1; }
	result = s;
	return 0;
}
`, 55+11)
}

func TestBreakContinue(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 100; i = i + 1) {
		if (i % 2 == 0) continue;
		if (i > 10) break;
		s = s + i;   // 1+3+5+7+9
	}
	result = s;
	return 0;
}
`, 25)
}

func TestGlobalArraysAndPointers(t *testing.T) {
	checkBoth(t, `
int a[10];
int result;
int main() {
	int i;
	int *p;
	for (i = 0; i < 10; i = i + 1) a[i] = i * i;
	p = &a[3];
	result = a[9] + *p + p[2];   // 81 + 9 + 25
	return 0;
}
`, 115)
}

func TestLocalArrays(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int b[8];
	int i; int s;
	for (i = 0; i < 8; i = i + 1) b[i] = i + 1;
	s = 0;
	for (i = 0; i < 8; i = i + 1) s = s + b[i];
	result = s;
	return 0;
}
`, 36)
}

func TestCharsAndStrings(t *testing.T) {
	checkBoth(t, `
char buf[16];
int result;
int slen(char *s) {
	int n;
	n = 0;
	while (s[n]) n = n + 1;
	return n;
}
int main() {
	char *msg;
	int i;
	msg = "hello";
	for (i = 0; i <= slen(msg); i = i + 1) buf[i] = msg[i];
	result = slen(buf) * 256 + buf[4];
	return 0;
}
`, 5*256+'o')
}

func TestRecursionFib(t *testing.T) {
	checkBoth(t, `
int result;
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() {
	result = fib(15);
	return 0;
}
`, 610)
}

func TestMutualRecursion(t *testing.T) {
	checkBoth(t, `
int result;
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int main() {
	result = isEven(10) * 10 + isOdd(7);
	return 0;
}
`, 11)
}

func TestManyArguments(t *testing.T) {
	checkBoth(t, `
int result;
int sum6(int a, int b, int c, int d, int e, int f) {
	return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}
int main() {
	result = sum6(1, 2, 3, 4, 5, 6);
	return 0;
}
`, 1+4+9+16+25+36)
}

func TestNestedCalls(t *testing.T) {
	checkBoth(t, `
int result;
int add(int a, int b) { return a + b; }
int main() {
	result = add(add(1, 2), add(add(3, 4), 5));
	return 0;
}
`, 15)
}

func TestCompoundAssign(t *testing.T) {
	checkBoth(t, `
int a[4];
int result;
int main() {
	int x;
	x = 10;
	x += 5; x -= 3; x *= 4; x /= 2; x %= 13;  // 11
	a[2] = 7;
	a[2] += 3;
	a[2] *= 2;
	result = x * 100 + a[2];
	return 0;
}
`, 1120)
}

func TestPointerArithmetic(t *testing.T) {
	checkBoth(t, `
int arr[10];
int result;
int main() {
	int *p; int *q;
	int i;
	for (i = 0; i < 10; i = i + 1) arr[i] = i;
	p = arr;
	q = p + 7;
	*q = 70;
	q -= 2;
	result = (q - p) * 1000 + arr[7] + q[0];
	return 0;
}
`, 5000+70+5)
}

func TestCharPointerWalk(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	char *s;
	int sum;
	s = "AB";
	sum = 0;
	while (*s) { sum = sum * 1000 + *s; s = s + 1; }
	result = sum;
	return 0;
}
`, 'A'*1000+'B')
}

func TestGlobalInitializers(t *testing.T) {
	checkBoth(t, `
int g = 42;
int h = -7;
char c = 'x';
int result;
int main() {
	result = g + h + c;
	return 0;
}
`, 42-7+'x')
}

func TestDeepRecursionSpills(t *testing.T) {
	// Depth 40 forces window overflow on the 8-window RISC machine.
	checkBoth(t, `
int result;
int down(int n, int acc) {
	if (n == 0) return acc;
	return down(n - 1, acc + n);
}
int main() {
	result = down(40, 0);
	return 0;
}
`, 820)
}

func TestAckermannSmall(t *testing.T) {
	checkBoth(t, `
int result;
int ack(int m, int n) {
	if (m == 0) return n + 1;
	if (n == 0) return ack(m - 1, 1);
	return ack(m - 1, ack(m, n - 1));
}
int main() {
	result = ack(2, 3);
	return 0;
}
`, 9)
}

func TestOptimizedDelaySlotsSameResult(t *testing.T) {
	src := `
int result;
int f(int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) s += i * i; return s; }
int main() { result = f(20); return 0; }
`
	plain := runRISC(t, src, Options{Opt: 1})
	p := riscGlobal(t, plain, "result")
	opt := runRISC(t, src, Options{Opt: 1, DelaySlots: true})
	o := riscGlobal(t, opt, "result")
	if p != o {
		t.Fatalf("optimizer changed the result: %d vs %d", p, o)
	}
	if opt.Trace.Instructions >= plain.Trace.Instructions {
		t.Errorf("optimized run should execute fewer instructions: %d vs %d",
			opt.Trace.Instructions, plain.Trace.Instructions)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int main() { return x; }", "undefined name"},
		{"int main() { foo(); }", "undefined function"},
		{"int f(int a) { return a; } int main() { return f(); }", "takes 1 arguments"},
		{"int main() { int a[3]; a = 0; }", "cannot assign to an array"},
		{"int main() { 5 = 6; }", "not assignable"},
		{"int main() { int x; x = *x; }", "cannot dereference"},
		{"int main() { break; }", "outside a loop"},
		{"int main() { int x; int x; }", "redefined"},
		{"void main2() { return 5; } int main() { return 0; }", "void function"},
		{"int main() { int x; x++; }", "no ++"},
		{"int main() { return 1 +; }", "unexpected"},
		{"int g = f(); int main() { return 0; }", "undefined"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("source %q: error %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestTooManyRISCParams(t *testing.T) {
	src := "int f(int a, int b, int c, int d, int e, int g, int h) { return a; } int main() { return f(1,2,3,4,5,6,7); }"
	_, _, _, err := CompileRISC(src, Options{})
	if err == nil || !strings.Contains(err.Error(), "at most 6") {
		t.Errorf("want parameter-limit error, got %v", err)
	}
	// The CISC target passes arguments on the stack, so it accepts this.
	if _, _, _, err := CompileVAX(src, Options{}); err != nil {
		t.Errorf("vax should accept 7 params: %v", err)
	}
	// RV32 rejects the callee when it comes first, the call site when
	// the caller does.
	if _, _, _, err := CompileRV32(src, Options{}); err == nil ||
		err.Error() != `cc: line 1: "f": the RV32 convention passes at most 6 register parameters` {
		t.Errorf("rv32 callee-first: got %v", err)
	}
	callerFirst := "int f(int a, int b, int c, int d, int e, int g, int h);\n" +
		"int main() { return f(1,2,3,4,5,6,7); }\n" +
		"int f(int a, int b, int c, int d, int e, int g, int h) { return a; }"
	if _, _, _, err := CompileRV32(callerFirst, Options{}); err == nil ||
		err.Error() != `cc: line 2: call "f": at most 6 register arguments` {
		t.Errorf("rv32 caller-first: got %v", err)
	}
}

// TestAddressOfParam takes the address of a scalar parameter. CISC
// parameters live on the stack and RV32 homes an addressed parameter
// in its frame, so both compute the answer; RISC I parameters live in
// window registers, which have no address.
func TestAddressOfParam(t *testing.T) {
	src := `int result;
int f(int a, int p) {
	int *q;
	q = &p;
	*q = *q + a;
	return p;
}
int main() { result = f(1, 41); return 0; }`
	for _, lvl := range []int{0, 1} {
		if got := vaxGlobal(t, runVAXsrc(t, src, Options{Opt: lvl}), "result"); got != 42 {
			t.Errorf("vax -O%d result = %d, want 42", lvl, got)
		}
		if got := rv32Global(t, runRV32src(t, src, Options{Opt: lvl}), "result"); got != 42 {
			t.Errorf("rv32 -O%d result = %d, want 42", lvl, got)
		}
		_, _, _, err := CompileRISC(src, Options{Opt: lvl})
		if want := `cc: line 4: cannot take the address of register parameter "p"`; err == nil || err.Error() != want {
			t.Errorf("risc -O%d: got %v, want %s", lvl, err, want)
		}
	}
}

func TestWindowStatsFromCompiledCode(t *testing.T) {
	src := `
int result;
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { result = fib(14); return 0; }
`
	c := runRISC(t, src, Options{Opt: 1})
	if c.Regs.Stats.Calls < 100 {
		t.Errorf("expected many window calls, got %d", c.Regs.Stats.Calls)
	}
	if c.Regs.Stats.Overflows == 0 {
		t.Error("fib(14) at 8 windows should overflow at least once")
	}
	v := runVAXsrc(t, src, Options{Opt: 1})
	if v.Stats.Calls < 100 {
		t.Errorf("vax calls = %d", v.Stats.Calls)
	}
	// The headline claim: per-call memory traffic is far lower with
	// windows than with CALLS frames.
	riscWords := c.Stats.SpillWords + c.Stats.RefillWords
	riscPerCall := float64(riscWords) / float64(c.Regs.Stats.Calls)
	vaxPerCall := float64(v.Stats.CallMemWords) / float64(v.Stats.Calls)
	if riscPerCall >= vaxPerCall {
		t.Errorf("window traffic per call (%.2f words) should undercut CALLS (%.2f words)",
			riscPerCall, vaxPerCall)
	}
}

func TestPointerToPointer(t *testing.T) {
	checkBoth(t, `
int x;
int *p;
int **pp;
int result;
int main() {
	x = 5;
	p = &x;
	pp = &p;
	**pp = 42;
	result = x + *p;
	return 0;
}
`, 84)
}

func TestCharTruncationOnStore(t *testing.T) {
	checkBoth(t, `
char c;
int result;
int main() {
	c = 300;          // truncates to 44 in an 8-bit cell
	result = c;
	return 0;
}
`, 44)
}

func TestForWithoutClauses(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int i;
	i = 0;
	for (;;) {
		i = i + 1;
		if (i == 7) break;
	}
	result = i;
	return 0;
}
`, 7)
}

func TestNestedLoopsBreakContinue(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int i; int j; int s;
	s = 0;
	for (i = 0; i < 5; i = i + 1) {
		for (j = 0; j < 5; j = j + 1) {
			if (j == 3) break;       // inner break only
			if (i == 2) continue;    // inner continue only
			s = s + 1;
		}
	}
	result = s;   // 4 rows x 3 cols (row i==2 contributes 0)
	return 0;
}
`, 12)
}

func TestDanglingElse(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int a;
	a = 1;
	if (a)
		if (a > 5) result = 1;
		else result = 2;   // binds to the inner if
	return 0;
}
`, 2)
}

func TestDeepExpressionSpill(t *testing.T) {
	// Enough nesting to exhaust scratch registers and exercise the data-
	// stack spill path in both backends.
	checkBoth(t, `
int result;
int main() {
	int a;
	a = 2;
	result = ((((a+1)*(a+2))+((a+3)*(a+4)))+(((a+5)*(a+6))+((a+7)*(a+8))))
	       + ((((a+1)+(a+2))*((a+3)+(a+4)))+(((a+5)+(a+6))*((a+7)+(a+8))));
	return 0;
}
`, func() int32 {
		a := int32(2)
		return ((((a + 1) * (a + 2)) + ((a + 3) * (a + 4))) + (((a + 5) * (a + 6)) + ((a + 7) * (a + 8)))) +
			((((a + 1) + (a + 2)) * ((a + 3) + (a + 4))) + (((a + 5) + (a + 6)) * ((a + 7) + (a + 8))))
	}())
}

func TestManyLocalsSpillToFrame(t *testing.T) {
	// More scalar locals than allocatable registers: the extras live in
	// the frame and must still behave like variables.
	checkBoth(t, `
int result;
int main() {
	int a; int b; int c; int d; int e; int f; int g; int h;
	a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8;
	a = a + h;
	h = h + a;
	result = a*1 + b*2 + c*3 + d*4 + e*5 + f*6 + g*7 + h*8;
	return 0;
}
`, 9*1+2*2+3*3+4*4+5*5+6*6+7*7+17*8)
}

func TestCharArrayLocal(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	char tmp[8];
	int i;
	for (i = 0; i < 8; i = i + 1) tmp[i] = 'a' + i;
	result = tmp[0] * 1000 + tmp[7];
	return 0;
}
`, 'a'*1000+'h')
}

func TestAssignmentAsValue(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int a; int b;
	b = (a = 5) + 1;
	result = a * 100 + b;
	return 0;
}
`, 506)
}

func TestRecursiveGCD(t *testing.T) {
	checkBoth(t, `
int result;
int gcd(int a, int b) {
	if (b == 0) return a;
	return gcd(b, a % b);
}
int main() {
	result = gcd(1071, 462) * 1000 + gcd(17, 5);
	return 0;
}
`, 21001)
}

func TestGlobalCharArrayString(t *testing.T) {
	checkBoth(t, `
char msg[12] = "abc";
int result;
int main() {
	result = msg[0] + msg[1] + msg[2] + msg[3];   // trailing NUL
	return 0;
}
`, 'a'+'b'+'c')
}

func TestSpillPathsUnderRegisterPressure(t *testing.T) {
	// Five scalar locals leave only four scratch registers on the RISC
	// target; the nested expression below then needs the data-stack
	// spill path in every operator family.
	checkBoth(t, `
int arr[4];
int result;
int f(int x) { return x + 1; }
int main() {
	int a; int b; int c; int d; int e;
	a = 1; b = 2; c = 3; d = 4; e = 5;
	arr[0] = 9;
	result = (a + (b * (c + (d * (e + (a * (b + (c * f(d)))))))))
	       + arr[(a + (b * (c + (d * e))))  & 3]
	       + (a * (b * (c * (d * e))))
	       + (e % 3);
	return 0;
}
`, func() int32 {
		arr := [4]int32{9, 0, 0, 0}
		a, b, c, d, e := int32(1), int32(2), int32(3), int32(4), int32(5)
		f := func(x int32) int32 { return x + 1 }
		return (a + (b * (c + (d * (e + (a * (b + (c * f(d))))))))) +
			arr[(a+(b*(c+(d*e))))&3] +
			(a * (b * (c * (d * e)))) +
			(e % 3)
	}())
}

func TestDeclWithCallInitializer(t *testing.T) {
	checkBoth(t, `
int result;
int seven() { return 7; }
int main() {
	int x = seven();
	int y = x + seven();
	result = x * 100 + y;
	return 0;
}
`, 714)
}

func TestNullPointerComparison(t *testing.T) {
	checkBoth(t, `
int x;
int *p;
int result;
int main() {
	p = 0;
	if (p == 0) result = 1;
	p = &x;
	if (p != 0) result = result + 10;
	return 0;
}
`, 11)
}

func TestCharEscapes(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	char *s;
	s = "a\tb\nc\\d\"e";
	result = '\n' * 1000000 + '\t' * 10000 + '\\' * 100 + s[1];
	return 0;
}
`, '\n'*1000000+'\t'*10000+'\\'*100+'\t')
}

func TestPointerArithVariants(t *testing.T) {
	checkBoth(t, `
int arr[8];
char cs[8];
int result;
int main() {
	int i;
	int *p;
	char *q;
	for (i = 0; i < 8; i = i + 1) { arr[i] = i * 10; cs[i] = 'a' + i; }
	p = arr + 3;        // ptr + int
	p = 1 + p;          // int + ptr
	p = p - 2;          // ptr - int
	q = cs + 5;
	result = *p + q[-1] + *(2 + arr);
	return 0;
}
`, 20+'e'+20)
}

func TestCharParamAndReturn(t *testing.T) {
	checkBoth(t, `
int result;
char upper(char c) {
	if (c >= 'a' && c <= 'z') return c - 32;
	return c;
}
int main() {
	result = upper('q') * 1000 + upper('Q');
	return 0;
}
`, 'Q'*1000+'Q')
}

func TestParserErrorMessages(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int", "expected name"},
		{"int a[0];", "must be positive"},
		{"int a[x];", "number literal"},
		{"int f(", "expected type"},
		{"int f() { if }", "expected \"(\""},
		{"int f() { while (1) }", "unexpected"},
		{"int f() { return 1 }", "expected \";\""},
		{"int f() {", "unterminated block"},
		{"void v; int main() { return 0; }", "void type"},
		{"int main() { char c; c = *c; }", "cannot dereference"},
		{"int main() { int a[2]; int b[2]; a[0] = a - b + 1; return 0; }", ""},
		{"int main() { int x; x = \"s\"; }", "cannot assign"},
		{"int main() { int *p; p = p + p; }", ""},
		{"int f(int a[3]) { return a[0]; } int main() { return 0; }", ""},
		{"/* unterminated", "unterminated comment"},
		{"int x = 099x;", "bad number"},
		{"int main() { 'ab'; }", "character literal"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if tc.want == "" {
			continue // just must not panic; may or may not error
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("source %q: error %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	checkBoth(t, `
// line comment
int result; /* block
   comment spanning lines */
int main() {
	result = 5; // trailing
	/* inline */ result = result + 1;
	return 0;
}
`, 6)
}

func TestGlobalCommaDeclarations(t *testing.T) {
	checkBoth(t, `
int a = 1, b = 2, c;
int result;
int main() {
	c = 3;
	result = a + b * 10 + c * 100;
	return 0;
}
`, 321)
}

func TestLocalCommaDeclarations(t *testing.T) {
	checkBoth(t, `
int result;
int main() {
	int a = 4, b = 5, c = a + b;
	result = c * 10 + a;
	return 0;
}
`, 94)
}

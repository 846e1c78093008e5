package cc

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"risc1/internal/cc/progen"
)

// compileTargets is the full pipeline per machine: frontend at the
// given options, code generator and assembler.
var compileTargets = []struct {
	name    string
	compile func(string, Options) error
}{
	{"risc1", func(src string, o Options) error { _, _, _, err := CompileRISC(src, o); return err }},
	{"cisc", func(src string, o Options) error { _, _, _, err := CompileVAX(src, o); return err }},
	{"rv32", func(src string, o Options) error { _, _, _, err := CompileRV32(src, o); return err }},
}

// TestCompileAllocs pins the heap allocations of one full compilation
// of progen seed 1 per machine (DESIGN.md section 9, allocation
// discipline). Each bound is the count measured with go1.24 plus about
// 10%, so a change that brings back a per-operand, per-line or
// per-round allocation fails here.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	src, _ := progen.Program(rand.New(rand.NewSource(1)))
	bound := map[string]float64{"risc1": 493, "cisc": 606, "rv32": 561}
	for _, c := range compileTargets {
		var err error
		got := testing.AllocsPerRun(20, func() { err = c.compile(src, DefaultOptions) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %.0f allocs per compile", c.name, got)
		if got > bound[c.name] {
			t.Errorf("%s: %.0f allocs per compile, want at most %.0f", c.name, got, bound[c.name])
		}
	}
}

// TestLargeFunctionAllocs bounds what one compilation allocates per
// source byte on a single function of 10,000 `if(x)y=1;` statements
// (20,002 blocks and 30,001 temporaries) at -O0, which the
// server accepts from any client. What every stage allocates must stay
// linear in the function: a liveness table of blocks × temporaries
// allocated about twice this bound here, and tens of gigabytes at the
// server's 1 MiB source limit.
func TestLargeFunctionAllocs(t *testing.T) {
	src := "int x; int y; int main() {" + strings.Repeat("if(x)y=1;", 10000) + " return 0; }\n"
	const bound = 2000 // bytes allocated per source byte; about 850 today
	for _, c := range compileTargets {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.compile(src, Options{Opt: 0})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src))
		t.Logf("%s: %.0f bytes allocated per source byte", c.name, perByte)
		if perByte > bound {
			t.Errorf("%s: %.0f bytes allocated per source byte, want at most %d", c.name, perByte, bound)
		}
	}
}

// BenchmarkCompile times the whole pipeline (parse, lower, optimize,
// generate, assemble), one op per program, over BenchmarkCodegen's
// 64-program progen corpus at the default options.
func BenchmarkCompile(b *testing.B) {
	var srcs []string
	for seed := int64(1); seed <= 64; seed++ {
		src, _ := progen.Program(rand.New(rand.NewSource(seed)))
		srcs = append(srcs, src)
	}
	for _, c := range compileTargets {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.compile(srcs[i%len(srcs)], DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

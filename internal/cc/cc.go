package cc

import (
	"fmt"

	"risc1/internal/asm"
	"risc1/internal/cc/ir"
	"risc1/internal/cc/opt"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// Options selects how a MiniC compilation runs. The same machine-
// independent pipeline feeds all three code generators, so Opt means
// the same thing for every target.
type Options struct {
	// Opt is the optimization level: 0 compiles the naive lowering
	// as-is, 1 runs the full machine-independent pass pipeline.
	Opt int
	// DelaySlots enables the RISC I assembler's delayed-jump optimizer,
	// which fills branch shadow slots as the paper's tool chain did.
	// Ignored by the CISC and RV32 targets, which have no delay slots.
	DelaySlots bool
}

// CheckOpt rejects an optimization level the pipeline does not have:
// only 0 and 1 exist.
func CheckOpt(level int) error {
	if level < 0 || level > 1 {
		return fmt.Errorf("opt must be 0 or 1, got %d", level)
	}
	return nil
}

// DefaultOptions is the configuration the tools use unless told
// otherwise: optimized IR with filled delay slots.
var DefaultOptions = Options{Opt: 1, DelaySlots: true}

// Frontend runs the machine-independent half of the compiler: parse,
// type check, lower to IR, and optimize at the given level. All three
// code generators consume its output. The returned stats report how many
// rewrites each optimization pass performed. A level CheckOpt refuses is
// an error, so no tool can compile at, and report, a level that does
// not exist.
func Frontend(src string, optLevel int) (*ir.Program, []opt.Stat, error) {
	if err := CheckOpt(optLevel); err != nil {
		return nil, nil, err
	}
	ast, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	prog, err := Lower(ast)
	if err != nil {
		return nil, nil, err
	}
	stats := opt.Optimize(prog, optLevel)
	return prog, stats, nil
}

// compile runs the frontend, one code generator and its assembler. The
// generated text is returned whenever generation succeeded, and the
// pass statistics whenever the frontend did.
func compile[P any](src string, o Options, gen func(*ir.Program) (string, error), assemble func(string) (P, error)) (P, string, []opt.Stat, error) {
	var none P
	prog, stats, err := Frontend(src, o.Opt)
	if err != nil {
		return none, "", nil, err
	}
	text, err := gen(prog)
	if err != nil {
		return none, "", stats, err
	}
	p, err := assemble(text)
	if err != nil {
		return none, text, stats, err
	}
	return p, text, stats, nil
}

// CompileRISC compiles MiniC source to an assembled RISC I program.
// The generated assembly text is returned alongside the program for
// listings and debugging, and the pass statistics for reports.
func CompileRISC(src string, o Options) (*asm.Program, string, []opt.Stat, error) {
	return compile(src, o, GenRISC, func(text string) (*asm.Program, error) {
		return asm.Assemble(text, asm.Options{Optimize: o.DelaySlots})
	})
}

// CompileVAX compiles MiniC source to an assembled program for the
// CISC baseline.
func CompileVAX(src string, o Options) (*vax.Program, string, []opt.Stat, error) {
	return compile(src, o, GenVAX, vax.Assemble)
}

// CompileRV32 compiles MiniC source to an assembled program for the
// modern delay-slot-free RISC machine.
func CompileRV32(src string, o Options) (*rv32.Program, string, []opt.Stat, error) {
	return compile(src, o, GenRV32, rv32.Assemble)
}

// NormalizeOptFlags rewrites the conventional -O0/-O1 spellings into
// the -opt=N form the flag package can parse, so tools accept both.
func NormalizeOptFlags(args []string) []string {
	out := make([]string, 0, len(args))
	for _, a := range args {
		switch a {
		case "-O0", "--O0":
			out = append(out, "-opt=0")
		case "-O1", "--O1":
			out = append(out, "-opt=1")
		default:
			out = append(out, a)
		}
	}
	return out
}

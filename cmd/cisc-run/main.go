// Command cisc-run assembles and executes a program for the CISC
// baseline (the VAX-780-class comparison machine), reporting registers
// and the microcoded cycle accounting.
//
// Usage:
//
//	cisc-run [-limit N] [-print sym,sym] file.s
//	cisc-run [-O0|-O1] [-emit-ir] file.c
//
// A .c argument is compiled from MiniC first; -O0/-O1 select the
// compiler's optimization level and -emit-ir prints the IR instead of
// running.
//
// Observability: the -report, -profile, -trace-out, -trace-format and
// -trace flags mirror risc1-run; see that command's documentation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"risc1/internal/cc"
	"risc1/internal/machine"
	"risc1/internal/obs"
	"risc1/internal/vax"
)

func main() {
	limit := flag.Uint64("limit", 0, "instruction limit (0 = default)")
	list := flag.Bool("list", false, "print a disassembly listing before running")
	printSyms := flag.String("print", "", "comma-separated globals to print as words after the run")
	traceN := flag.Uint64("trace", 0, "print only the first N trace events (stdout unless -trace-out)")
	traceOut := flag.String("trace-out", "", "stream the execution trace to FILE")
	traceFormat := flag.String("trace-format", "", "trace format: text, jsonl or chrome (default from the -trace-out extension)")
	profileOut := flag.String("profile", "", `write the guest profile (per-function and hot-spot listing) to FILE ("-" = stdout)`)
	reportOut := flag.String("report", "", `write the machine-readable JSON run report to FILE ("-" = stdout)`)
	top := flag.Int("top", 10, "rows in the profile and report hot-spot listings")
	opt := flag.Int("opt", 1, "MiniC optimization level, also spelled -O0/-O1 (.c input only)")
	emitIR := flag.Bool("emit-ir", false, "print the compiler IR and exit (.c input only)")
	flag.CommandLine.Parse(cc.NormalizeOptFlags(os.Args[1:]))
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cisc-run [flags] file.s|file.c")
		os.Exit(2)
	}
	if err := cc.CheckOpt(*opt); err != nil {
		fmt.Fprintln(os.Stderr, "cisc-run:", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fromC := strings.HasSuffix(flag.Arg(0), ".c")
	if *emitIR {
		if !fromC {
			fatal(fmt.Errorf("-emit-ir needs MiniC (.c) input"))
		}
		irProg, _, err := cc.Frontend(string(src), *opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(irProg.Dump())
		return
	}
	var prog *vax.Program
	var passes []obs.PassStat
	if fromC {
		// The MiniC path compiles through the machine registry, so this
		// tool builds exactly what risc1-serve and the bench harness run.
		b, _ := machine.Lookup("cisc")
		mp, _, ps, err := b.Compile(string(src),
			b.Normalize(machine.Options{Opt: *opt}))
		if err != nil {
			fatal(err)
		}
		prog = machine.Unwrap(mp).(*vax.Program)
		passes = ps
	} else {
		prog, err = vax.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
	}
	if *list {
		fmt.Print(vax.Listing(prog))
		fmt.Println()
	}
	c := vax.New(vax.Config{MaxInstructions: *limit})

	symtab := obs.NewSymTab(prog.Symbols)
	run, err := obs.NewCLIRun(obs.CLIOptions{
		TraceN:      *traceN,
		TraceOut:    *traceOut,
		TraceFormat: *traceFormat,
		Profile:     *profileOut != "" || *reportOut != "",
		NSPerCycle:  vax.CycleNS,
	}, prog.Entry, symtab)
	if err != nil {
		fatal(err)
	}
	c.Obs = run.Observer

	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		fatal(err)
	}
	if err := run.Finish("cisc-run", c.Run()); err != nil {
		fatal(err)
	}

	fmt.Printf("halted after %d instructions, %d cycles (%.1f µs at 200 ns)\n",
		c.Trace.Instructions, c.Trace.Cycles, c.Micros())
	fmt.Printf("calls: %d (%d cycles, %d frame words); branches: %d taken, %d untaken\n",
		c.Stats.Calls, c.Stats.CallCycles, c.Stats.CallMemWords,
		c.Stats.BranchesTaken, c.Stats.BranchesUntaken)
	fmt.Printf("instruction stream: %d bytes fetched (%.2f bytes/instruction)\n",
		c.Stats.InstBytes, float64(c.Stats.InstBytes)/float64(c.Trace.Instructions))
	fmt.Printf("memory: %d reads, %d writes (%d bytes read, %d bytes written)\n",
		c.Mem.Stats.Reads, c.Mem.Stats.Writes, c.Mem.Stats.BytesRead, c.Mem.Stats.BytesWritten)
	fmt.Println("\nregisters:")
	for r := 0; r < vax.NumRegs; r++ {
		name := fmt.Sprintf("r%d", r)
		switch r {
		case vax.RegAP:
			name = "ap"
		case vax.RegFP:
			name = "fp"
		case vax.RegSP:
			name = "sp"
		}
		fmt.Printf("  %-3s %08x", name, c.R[r])
		if r%4 == 3 {
			fmt.Println()
		}
	}
	if *printSyms != "" {
		fmt.Println("\nglobals:")
		for _, name := range strings.Split(*printSyms, ",") {
			name = strings.TrimSpace(name)
			addr, ok := prog.Symbol(name)
			if !ok {
				fmt.Printf("  %s: undefined\n", name)
				continue
			}
			v, err := c.Mem.LoadWord(addr)
			if err != nil {
				fmt.Printf("  %s: %v\n", name, err)
				continue
			}
			fmt.Printf("  %s = %d (%#x)\n", name, int32(v), v)
		}
	}
	fmt.Println("\ninstruction mix:")
	for _, s := range c.Trace.Mix() {
		fmt.Printf("  %-8s %6.1f%%  (%d)\n", s.Name, 100*s.Frac, s.Count)
	}

	if *profileOut != "" {
		text := obs.FormatProfile(run.Observer.Prof, symtab, c.Disassembler(), *top)
		if err := obs.WriteOut(*profileOut, []byte(text)); err != nil {
			fatal(err)
		}
	}
	if *reportOut != "" {
		name := filepath.Base(flag.Arg(0))
		name = strings.TrimSuffix(strings.TrimSuffix(name, ".s"), ".c")
		r := c.BuildReport(name)
		if fromC {
			r.Config.OptLevel = *opt
			r.Config.Passes = passes
		}
		r.Profile = obs.ProfileSection(run.Observer.Prof, symtab, c.Disassembler(), *top)
		b, err := r.JSON()
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteOut(*reportOut, b); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cisc-run:", err)
	os.Exit(1)
}

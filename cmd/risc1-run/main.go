// Command risc1-run assembles and executes a RISC I assembly program,
// then reports registers, cycle counts, and register-window statistics.
// A .c argument is compiled from MiniC first; -O0/-O1 select the
// compiler's optimization level and -emit-ir prints the IR instead of
// running.
//
// Usage:
//
//	risc1-run [-O] [-windows N] [-nocache] [-limit N] [-print sym,sym] file.s
//	risc1-run [-O0|-O1] [-emit-ir] file.c
//
// Observability:
//
//	risc1-run -report run.json file.s        # machine-readable run report
//	risc1-run -profile - file.s              # guest profile to stdout
//	risc1-run -trace-out run.trace.json file.s   # Perfetto-loadable trace
//	risc1-run -trace 20 file.s               # first 20 events to stdout
//
// The trace format follows the file extension (.jsonl → JSON lines,
// .json/.trace → Chrome trace_event, else text) unless -trace-format
// overrides it. "-" as a report or profile path means stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cpu"
	"risc1/internal/machine"
	"risc1/internal/obs"
	"risc1/internal/regfile"
)

func main() {
	optimize := flag.Bool("O", false, "fill delayed-jump slots")
	windows := flag.Int("windows", 0, "register windows (0 = the paper's 8)")
	noWindows := flag.Bool("nowindows", false, "ablation: spill every call")
	noICache := flag.Bool("nocache", false, "disable the predecoded instruction cache (internal/predecode); host speed only, simulated results are identical")
	limit := flag.Uint64("limit", 0, "instruction limit (0 = default)")
	printSyms := flag.String("print", "", "comma-separated globals to print as words after the run")
	traceN := flag.Uint64("trace", 0, "print only the first N trace events (stdout unless -trace-out)")
	traceOut := flag.String("trace-out", "", "stream the execution trace to FILE")
	traceFormat := flag.String("trace-format", "", "trace format: text, jsonl or chrome (default from the -trace-out extension)")
	profileOut := flag.String("profile", "", `write the guest profile (per-function and hot-spot listing) to FILE ("-" = stdout)`)
	reportOut := flag.String("report", "", `write the machine-readable JSON run report to FILE ("-" = stdout)`)
	top := flag.Int("top", 10, "rows in the profile and report hot-spot listings")
	opt := flag.Int("opt", 1, "MiniC optimization level, also spelled -O0/-O1 (.c input only)")
	emitIR := flag.Bool("emit-ir", false, "print the compiler IR and exit (.c input only)")
	stepBack := flag.Uint64("step-back", 0, "time travel: after the run ends, rewind the machine N instructions and print its state there")
	flag.CommandLine.Parse(cc.NormalizeOptFlags(os.Args[1:]))
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: risc1-run [flags] file.s|file.c")
		os.Exit(2)
	}
	if err := cc.CheckOpt(*opt); err != nil {
		fmt.Fprintln(os.Stderr, "risc1-run:", err)
		os.Exit(2)
	}
	if *windows != 0 {
		if err := (regfile.Config{Windows: *windows}).Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "risc1-run:", err)
			os.Exit(2)
		}
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
	var prog *asm.Program
	var passes []obs.PassStat
	if fromC {
		// The MiniC path compiles through the machine registry, so this
		// tool builds exactly what risc1-serve and the bench harness run.
		b, _ := machine.Lookup("risc1")
		mp, _, ps, err := b.Compile(string(src),
			b.Normalize(machine.Options{Opt: *opt, DelaySlots: *optimize}))
		if err != nil {
			fatal(err)
		}
		prog = machine.Unwrap(mp).(*asm.Program)
		passes = ps
	} else {
		prog, err = asm.Assemble(string(src), asm.Options{Optimize: *optimize})
		if err != nil {
			fatal(err)
		}
	}
	c := cpu.New(cpu.Config{Windows: *windows, NoWindows: *noWindows, NoICache: *noICache, MaxInstructions: *limit})

	symtab := obs.NewSymTab(prog.Symbols)
	run, err := obs.NewCLIRun(obs.CLIOptions{
		TraceN:      *traceN,
		TraceOut:    *traceOut,
		TraceFormat: *traceFormat,
		Profile:     *profileOut != "" || *reportOut != "",
		NSPerCycle:  cpu.DefaultCycleNS,
	}, prog.Entry, symtab)
	if err != nil {
		fatal(err)
	}
	c.Obs = run.Observer

	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		fatal(err)
	}
	if *stepBack > 0 {
		// Time travel rewinds the machine through snapshots, which do not
		// carry observer state — replayed instructions would be observed
		// twice. Keep the modes separate.
		if run.Observer != nil {
			fatal(fmt.Errorf("-step-back cannot be combined with -trace, -profile or -report"))
		}
		if err := timeTravel(c, *stepBack, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "risc1-run: run ended with:", err)
		}
		return
	}
	if err := run.Finish("risc1-run", c.Run()); err != nil {
		fatal(err)
	}

	fmt.Printf("halted after %d instructions, %d cycles (%.1f µs at 400 ns)\n",
		c.Trace.Instructions, c.Trace.Cycles, c.Micros())
	fmt.Printf("windows: %d calls, %d returns, %d overflows, %d underflows, max depth %d\n",
		c.Regs.Stats.Calls, c.Regs.Stats.Returns,
		c.Regs.Stats.Overflows, c.Regs.Stats.Underflows, c.Regs.MaxDepth())
	fmt.Printf("jumps: %d taken, %d untaken; delay-slot nops executed: %d\n",
		c.Stats.JumpsTaken, c.Stats.JumpsUntaken, c.Stats.DelaySlotNops)
	fmt.Printf("memory: %d reads, %d writes (%d bytes read, %d bytes written)\n",
		c.Mem.Stats.Reads, c.Mem.Stats.Writes, c.Mem.Stats.BytesRead, c.Mem.Stats.BytesWritten)
	if !*noICache {
		s := c.ICacheStats()
		fmt.Printf("icache (host): %d hits, %d misses, %d fills, %d invalidations\n",
			s.Hits, s.Misses, s.Fills, s.Invalidations)
	}
	fmt.Println("\nregisters (current window):")
	for r := uint8(0); r < 32; r++ {
		fmt.Printf("  r%-2d %08x", r, c.Regs.Get(r))
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
		r.Config.Optimized = *optimize
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
	fmt.Fprintln(os.Stderr, "risc1-run:", err)
	os.Exit(1)
}

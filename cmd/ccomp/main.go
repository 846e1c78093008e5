// Command ccomp compiles MiniC (the benchmark dialect of C) to assembly
// for any registered target machine, optionally assembling and running it.
//
// Usage:
//
//	ccomp -target risc1 file.c         # print RISC I assembly
//	ccomp -target cisc file.c          # print CISC baseline assembly
//	ccomp -target rv32 file.c          # print RV32I-subset assembly
//	ccomp -target risc1 -run file.c    # compile, run, print "result"
//	ccomp -O0 -emit-ir file.c          # print the unoptimized IR
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"risc1/internal/cc"
	"risc1/internal/machine"
)

func main() {
	target := flag.String("target", machine.DefaultName,
		"target machine ("+strings.Join(machine.Names(), ", ")+"; aliases accepted)")
	optimize := flag.Bool("O", true, "fill delayed-jump slots (risc1 only)")
	opt := flag.Int("opt", 1, "IR optimization level (also -O0/-O1)")
	emitIR := flag.Bool("emit-ir", false, "print the optimized IR and exit")
	run := flag.Bool("run", false, "execute and print the global \"result\"")
	flag.CommandLine.Parse(cc.NormalizeOptFlags(os.Args[1:]))
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: ccomp [-target %s] [-O0|-O1] [-emit-ir] [-run] file.c\n",
			strings.Join(machine.Names(), "|"))
		os.Exit(2)
	}
	if err := cc.CheckOpt(*opt); err != nil {
		fmt.Fprintln(os.Stderr, "ccomp:", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *emitIR {
		prog, _, err := cc.Frontend(string(src), *opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(prog.Dump())
		return
	}

	b, ok := machine.Lookup(*target)
	if !ok {
		_, err := machine.Canonical(*target)
		fatal(err)
	}
	o := b.Normalize(machine.Options{Opt: *opt, DelaySlots: *optimize})
	prog, text, _, err := b.Compile(string(src), o)
	if err != nil {
		fatal(err)
	}
	if !*run {
		fmt.Print(text)
		return
	}
	m := b.New(o)
	m.Reset(prog.Entry())
	if err := prog.LoadInto(m.Mem()); err != nil {
		fatal(err)
	}
	if err := m.RunContext(context.Background()); err != nil {
		fatal(err)
	}
	if addr, ok := prog.Symbol("result"); !ok {
		fmt.Println("(no global named \"result\")")
	} else if v, err := m.Mem().LoadWord(addr); err != nil {
		fatal(err)
	} else {
		fmt.Printf("result = %d\n", int32(v))
	}
	fmt.Printf("%d instructions, %d cycles (%.1f µs)\n",
		m.Instructions(), m.Cycles(), m.Micros())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccomp:", err)
	os.Exit(1)
}

// Command risc1-bench regenerates the evaluation tables and figures of
// the RISC I paper: instruction set, machine characteristics, benchmark
// suite, static code size, execution time, instruction mix, window
// overflow rates, delay-slot fill rates, procedure-call cost, call
// memory traffic, and a design-feature ablation.
//
// Usage:
//
//	risc1-bench                  # everything, paper-scale inputs
//	risc1-bench -scale small     # fast inputs
//	risc1-bench -table size,time # only selected tables
//	risc1-bench -fig windows     # only selected figures
//	risc1-bench -nocache         # run all three simulators without the icache
//	risc1-bench -report out.json # machine-readable report of every run
//	risc1-bench -O0              # compile the workloads unoptimized
//	risc1-bench -parallel 8      # run the sweep on 8 workers
//	risc1-bench -cache           # cold-vs-cached latency of the result cache
//	risc1-bench -warmstart       # full-prelude vs image-restore request latency
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"risc1/internal/bench"
	"risc1/internal/cc"
	"risc1/internal/obs"
)

func main() {
	scale := flag.String("scale", "paper", "workload scale: paper or small")
	tables := flag.String("table", "", "comma-separated tables: instr,machines,suite,size,time,mix,ops,callcost,traffic (default all)")
	figs := flag.String("fig", "", "comma-separated figures: windows,delayslots,depth,ablation (default all)")
	noICache := flag.Bool("nocache", false, "disable the predecoded instruction cache of all three simulators; host speed only, simulated results are identical")
	reportOut := flag.String("report", "", `write a machine-readable JSON bench report (one run report per workload and machine) to FILE ("-" = stdout)`)
	opt := flag.Int("opt", 1, "MiniC optimization level, also spelled -O0/-O1")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "simulator workers for the sweeps; output is byte-identical at any setting")
	cacheSweep := flag.Bool("cache", false, "measure the content-addressed result cache: cold vs cached request latency (host time)")
	cacheRepeats := flag.Int("cache-repeats", 5, "hot requests per workload for -cache")
	warmStart := flag.Bool("warmstart", false, "measure warm-start serving: full prelude vs image-restore request latency (host time)")
	warmStartRepeats := flag.Int("warmstart-repeats", 20, "interleaved cold/warm request pairs for -warmstart")
	flag.CommandLine.Parse(cc.NormalizeOptFlags(os.Args[1:]))
	bench.NoICache = *noICache
	bench.OptLevel = *opt
	bench.Parallel = *parallel

	params := bench.Default()
	if *scale == "small" {
		params = bench.Small()
	}

	want := func(list, name string) bool {
		if *tables == "" && *figs == "" {
			// -cache or -warmstart alone measure just that; combine them
			// with -table/-fig to also regenerate paper artifacts.
			return !*cacheSweep && !*warmStart
		}
		for _, n := range strings.Split(list, ",") {
			if strings.TrimSpace(n) == name {
				return true
			}
		}
		return false
	}

	suite := bench.Suite(params)
	out := os.Stdout

	if want(*tables, "instr") {
		fmt.Fprintln(out, bench.TableInstructionSet())
	}
	if want(*tables, "machines") {
		fmt.Fprintln(out, bench.TableMachines())
	}
	if want(*tables, "suite") {
		fmt.Fprintln(out, bench.TableSuite(suite))
	}

	needCompare := want(*tables, "size") || want(*tables, "time") || want(*tables, "mix") ||
		want(*tables, "ops") || want(*tables, "traffic") ||
		want(*figs, "delayslots") || want(*figs, "depth") || *reportOut != ""
	var cs []bench.Comparison
	if needCompare {
		var err error
		fmt.Fprintln(os.Stderr, "running the suite on both machines...")
		cs, err = bench.CompareAll(suite)
		if err != nil {
			fatal(err)
		}
	}
	if want(*tables, "size") {
		fmt.Fprintln(out, bench.TableCodeSize(cs))
	}
	if want(*tables, "time") {
		fmt.Fprintln(out, bench.TableExecTime(cs))
	}
	if want(*tables, "mix") {
		fmt.Fprintln(out, bench.TableMix(cs))
	}
	if want(*tables, "ops") {
		fmt.Fprintln(out, bench.TableOpFrequency(cs))
	}
	if want(*figs, "windows") {
		fmt.Fprintln(os.Stderr, "sweeping window counts...")
		sweep, err := bench.SweepWindows(suite, []int{2, 3, 4, 6, 8, 12, 16})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, bench.FigWindowSweep(sweep))
		fmt.Fprintln(out, bench.FigWindowTime(sweep))
	}
	if want(*figs, "delayslots") {
		fmt.Fprintln(out, bench.FigDelaySlots(cs))
	}
	if want(*figs, "depth") {
		fmt.Fprintln(out, bench.FigDepthHistogram(cs))
	}
	if want(*tables, "callcost") {
		costs, err := bench.MeasureCallCost()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, bench.TableCallCost(costs))
	}
	if want(*tables, "traffic") {
		fmt.Fprintln(out, bench.TableTraffic(cs))
	}
	if want(*figs, "ablation") {
		fmt.Fprintln(os.Stderr, "running the ablation...")
		rows, err := bench.RunAblation(suite)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, bench.FigAblation(rows))
	}
	if *cacheSweep {
		fmt.Fprintln(os.Stderr, "measuring the result cache...")
		sweep, err := bench.SweepCache(suite, *cacheRepeats)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, bench.TableCacheSweep(sweep))
	}
	if *warmStart {
		fmt.Fprintln(os.Stderr, "measuring warm-start serving...")
		sweep, err := bench.SweepWarmStart(*warmStartRepeats)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, bench.TableWarmStart(sweep))
	}
	if *reportOut != "" {
		r := obs.NewBenchReport(*scale, bench.Reports(cs))
		b, err := r.JSON()
		if err != nil {
			fatal(err)
		}
		if *reportOut == "-" {
			if _, err := os.Stdout.Write(b); err != nil {
				fatal(err)
			}
		} else if err := os.WriteFile(*reportOut, b, 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "risc1-bench:", err)
	os.Exit(1)
}

package bench

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"risc1/internal/asm"
	"risc1/internal/cpu"
	"risc1/internal/exec"
	"risc1/internal/isa"
	"risc1/internal/machine"
	"risc1/internal/regfile"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// The table printers regenerate the paper's evaluation artifacts as
// formatted text. Each returns a string so CLI tools, tests, and the
// EXPERIMENTS.md generator can share them.

func table(fn func(w *tabwriter.Writer)) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return b.String()
}

// TableInstructionSet regenerates the paper's Table 1: the 31 RISC I
// instructions with their formats and one-line semantics.
func TableInstructionSet() string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "T1. The RISC I instruction set (%d instructions)\n", isa.NumInstructions)
		fmt.Fprintln(w, "mnemonic\tclass\tformat\tcycles\tsemantics")
		for _, info := range isa.Instructions() {
			format := "short"
			if info.Format == isa.FormatLong {
				format = "long"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\n",
				info.Name, info.Class, format, info.Cycles, info.Semantic)
		}
	})
}

// TableMachines regenerates the machine-characteristics comparison: the
// RISC I design against the microcoded CISC baseline it is measured
// against (standing in for the paper's VAX-11/780 column), plus the
// RV32I-subset point — a RISC without windows or delay slots.
func TableMachines() string {
	rcfg := regfile.DefaultConfig
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T2. Machine characteristics")
		fmt.Fprintln(w, "characteristic\tRISC I\tCISC baseline (VAX-780 class)\tRV32I subset")
		fmt.Fprintf(w, "instructions\t%d\t%d\t%d\n", isa.NumInstructions, vax.NumInstructions, rv32.NumInstructions)
		fmt.Fprintf(w, "instruction size (bytes)\t4\t2-19 (variable)\t4\n")
		fmt.Fprintf(w, "instruction formats\t2\tone per operand-specifier combination\t6\n")
		fmt.Fprintf(w, "addressing modes\t%d\t%d\t%d\n", 2, vax.NumAddressingModes, 1)
		fmt.Fprintf(w, "general registers\t%d visible / %d physical\t%d\t%d\n",
			isa.NumVisibleRegs, rcfg.PhysicalRegs(), vax.NumRegs, rv32.NumRegs)
		fmt.Fprintf(w, "register windows\t%d (overlap 6)\tnone\tnone\n", rcfg.Windows)
		fmt.Fprintf(w, "delayed jumps\tyes (1 slot)\tno\tno\n")
		fmt.Fprintf(w, "cycle time (ns)\t%d\t%d\t%d\n", cpu.DefaultCycleNS, vax.CycleNS, rv32.CycleNS)
		fmt.Fprintf(w, "control\thardwired\tmicrocoded (modelled costs)\thardwired\n")
		fmt.Fprintf(w, "memory access\tload/store only\tany operand\tload/store only\n")
	})
}

// TableSuite lists the benchmark programs — the paper's workload table.
func TableSuite(suite []Workload) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T3. Benchmark suite (C programs, recreated in MiniC)")
		fmt.Fprintln(w, "name\tpaper key\tdescription\tcall-heavy")
		for _, wl := range suite {
			key := wl.Key
			if key == "" {
				key = "-"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%v\n", wl.Name, key, wl.Desc, wl.CallHeavy)
		}
	})
}

// TableCodeSize regenerates the static program-size comparison. The
// paper's result: RISC I code is modestly larger (it reported roughly
// 1.2-2x against VAX), the price of fixed 32-bit instructions.
func TableCodeSize(cs []Comparison) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T4. Static code size (bytes of instructions)")
		fmt.Fprintln(w, "benchmark\tRISC I\tCISC\tRV32\tRISC/CISC\tRV32/CISC")
		var sumRatio, sumRv32 float64
		for _, c := range cs {
			ratio := float64(c.Risc.TextBytes) / float64(c.Vax.TextBytes)
			rvRatio := float64(c.Rv32.TextBytes) / float64(c.Vax.TextBytes)
			sumRatio += ratio
			sumRv32 += rvRatio
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2f\t%.2f\n", c.Workload.Name,
				c.Risc.TextBytes, c.Vax.TextBytes, c.Rv32.TextBytes, ratio, rvRatio)
		}
		fmt.Fprintf(w, "geometric mean-ish (avg)\t\t\t\t%.2f\t%.2f\n",
			sumRatio/float64(len(cs)), sumRv32/float64(len(cs)))
	})
}

// TableExecTime regenerates the execution-time comparison: dynamic
// instructions, cycles, microseconds (RISC I at 400 ns vs CISC at
// 200 ns), and the speedup. The paper's result: RISC I executes more
// instructions yet finishes 2-4x sooner.
func TableExecTime(cs []Comparison) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T5. Execution time")
		fmt.Fprintln(w, "benchmark\tRISC instr\tCISC instr\tRV32 instr\tRISC µs\tCISC µs\tRV32 µs\tCISC/RISC time\tCISC/RV32 time")
		var sumSpeed, sumRv32 float64
		for _, c := range cs {
			risc, vax, rv := c.Risc.Report.Totals, c.Vax.Report.Totals, c.Rv32.Report.Totals
			speed := vax.Micros / risc.Micros
			rvSpeed := vax.Micros / rv.Micros
			sumSpeed += speed
			sumRv32 += rvSpeed
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.2f\t%.2f\n",
				c.Workload.Name, risc.Instructions, vax.Instructions, rv.Instructions,
				risc.Micros, vax.Micros, rv.Micros, speed, rvSpeed)
		}
		fmt.Fprintf(w, "average speedup\t\t\t\t\t\t\t%.2f\t%.2f\n",
			sumSpeed/float64(len(cs)), sumRv32/float64(len(cs)))
	})
}

// TableMix regenerates the dynamic instruction-mix comparison by class.
func TableMix(cs []Comparison) string {
	riscTotals := map[string]uint64{}
	vaxTotals := map[string]uint64{}
	rv32Totals := map[string]uint64{}
	var riscN, vaxN, rv32N uint64
	for _, c := range cs {
		for _, s := range c.Risc.Report.Mix {
			riscTotals[s.Name] += s.Count
			riscN += s.Count
		}
		for _, s := range c.Vax.Report.Mix {
			vaxTotals[s.Name] += s.Count
			vaxN += s.Count
		}
		for _, s := range c.Rv32.Report.Mix {
			rv32Totals[s.Name] += s.Count
			rv32N += s.Count
		}
	}
	share := func(totals map[string]uint64, n uint64, class string) string {
		if c := totals[class]; c > 0 {
			return fmt.Sprintf("%.1f%%", 100*float64(c)/float64(n))
		}
		return "-"
	}
	classes := []string{"alu", "memory", "control", "move", "call", "misc"}
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T6. Dynamic instruction mix (whole suite)")
		fmt.Fprintln(w, "class\tRISC I\tCISC\tRV32")
		for _, cl := range classes {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", cl,
				share(riscTotals, riscN, cl), share(vaxTotals, vaxN, cl), share(rv32Totals, rv32N, cl))
		}
	})
}

// FigWindowSweep regenerates the window-overflow figure: the fraction of
// calls that overflow as the number of windows grows. The paper's shape:
// a steep fall, with only a few percent of calls spilling at 8 windows.
func FigWindowSweep(s WindowSweep) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "F1. Window overflows as a fraction of calls, by window count")
		fmt.Fprintf(w, "windows\t%s\n", strings.Join(s.Workloads, "\t"))
		for i, wins := range s.Windows {
			cells := make([]string, len(s.Rate[i]))
			for j, r := range s.Rate[i] {
				cells[j] = fmt.Sprintf("%.2f%%", 100*r)
			}
			fmt.Fprintf(w, "%d\t%s\n", wins, strings.Join(cells, "\t"))
		}
		calls := make([]string, len(s.Calls))
		for j, n := range s.Calls {
			calls[j] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(w, "(calls)\t%s\n", strings.Join(calls, "\t"))
	})
}

// FigWindowTime shows run time against window count: the performance
// side of the window design space. Time falls as overflows vanish, then
// flattens — the knee the paper picked 8 windows at.
func FigWindowTime(s WindowSweep) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "F4. Run time (simulated microseconds) by window count")
		fmt.Fprintf(w, "windows\t%s\n", strings.Join(s.Workloads, "\t"))
		for i, wins := range s.Windows {
			cells := make([]string, len(s.Micros[i]))
			for j, us := range s.Micros[i] {
				cells[j] = fmt.Sprintf("%.0f", us)
			}
			fmt.Fprintf(w, "%d\t%s\n", wins, strings.Join(cells, "\t"))
		}
		// Relative cost of the smallest file vs the largest measured.
		if len(s.Micros) >= 2 {
			cells := make([]string, len(s.Workloads))
			last := len(s.Micros) - 1
			for j := range s.Workloads {
				cells[j] = fmt.Sprintf("%.2fx", s.Micros[0][j]/s.Micros[last][j])
			}
			fmt.Fprintf(w, "(w=%d vs w=%d)\t%s\n", s.Windows[0], s.Windows[last], strings.Join(cells, "\t"))
		}
	})
}

// FigDelaySlots regenerates the delayed-jump optimization result: how
// many branch shadow slots the optimizer filled (static), and the
// dynamic NOPs that disappeared.
func FigDelaySlots(cs []Comparison) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "F2. Delayed-jump optimization")
		fmt.Fprintln(w, "benchmark\ttransfers\tslots filled\tfill rate\tdyn. NOPs before\tdyn. NOPs after\tinstr saved")
		for _, c := range cs {
			// The static slot counts are the assembler's: recompile
			// with the optimized run's options to read them.
			cfg := c.Risc.Report.Config
			prog, _, _, err := riscBackend.Compile(c.Workload.Source, machine.Options{Opt: cfg.OptLevel, DelaySlots: cfg.Optimized})
			if err != nil {
				fmt.Fprintf(w, "%s\t%v\n", c.Workload.Name, err)
				continue
			}
			slots := machine.Unwrap(prog).(*asm.Program).Slots
			saved := int64(c.RiscNop.Report.Totals.Instructions) - int64(c.Risc.Report.Totals.Instructions)
			fmt.Fprintf(w, "%s\t%d\t%d\t%.0f%%\t%d\t%d\t%d\n",
				c.Workload.Name,
				slots.Transfers, slots.Filled, 100*slots.FillRate(),
				c.RiscNop.Report.Control.DelaySlotNops, c.Risc.Report.Control.DelaySlotNops, saved)
		}
	})
}

// TableCallCost regenerates the paper's headline comparison: what one
// procedure call/return costs on each machine.
func TableCallCost(costs []CallCost) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T7. Cost of one call/return (differenced microbenchmark)")
		fmt.Fprintln(w, "machine\tcycles/call\tµs/call\tmemory words/call")
		for _, c := range costs {
			fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.1f\n", c.Machine, c.CyclesPerCall, c.MicrosPerCall, c.MemWordsPer)
		}
	})
}

// TableTraffic regenerates the call-related memory-traffic comparison on
// the call-heavy programs: register windows keep most activations on
// chip, so data-memory traffic collapses.
func TableTraffic(cs []Comparison) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T8. Data-memory traffic on call-heavy programs")
		fmt.Fprintln(w, "benchmark\tcalls\tRISC words moved\tCISC frame words\tRISC words/call\tCISC words/call")
		for _, c := range cs {
			if !c.Workload.CallHeavy {
				continue
			}
			win, cisc := c.Risc.Report.Windows, c.Vax.Report.Cisc
			riscWords := win.SpillWords + win.RefillWords
			if win.Calls == 0 {
				continue
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2f\t%.2f\n",
				c.Workload.Name, win.Calls, riscWords, cisc.CallMemWords,
				float64(riscWords)/float64(win.Calls),
				float64(cisc.CallMemWords)/float64(cisc.Calls))
		}
	})
}

// TableOpFrequency ranks the most-executed RISC I instructions across
// the suite — the measurement style that motivated RISC in the first
// place: a handful of simple operations dominates everything compilers
// emit, so silicon spent on the rest is wasted.
func TableOpFrequency(cs []Comparison) string {
	totals := map[string]uint64{}
	var n uint64
	for _, c := range cs {
		for _, op := range c.Risc.Report.Ops {
			totals[op.Name] += op.Count
			n += op.Count
		}
	}
	type row struct {
		name string
		cnt  uint64
	}
	rows := make([]row, 0, len(totals))
	for name, cnt := range totals {
		rows = append(rows, row{name, cnt})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cnt != rows[j].cnt {
			return rows[i].cnt > rows[j].cnt
		}
		return rows[i].name < rows[j].name
	})
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T9. Most-executed RISC I instructions (whole suite)")
		fmt.Fprintln(w, "rank	instruction	share	cumulative")
		var cum float64
		for i, r := range rows {
			if i >= 10 {
				fmt.Fprintf(w, "\t(%d more)\t%.1f%%\t100.0%%\n", len(rows)-10, 100-cum)
				break
			}
			share := 100 * float64(r.cnt) / float64(n)
			cum += share
			fmt.Fprintf(w, "%d\t%s\t%.1f%%\t%.1f%%\n", i+1, r.name, share, cum)
		}
	})
}

// FigDepthHistogram shows how deeply the call-heavy programs nest — the
// behaviour that justifies a multi-window register file: most calls
// happen within a narrow band of depths, so a handful of windows
// captures nearly all of them.
func FigDepthHistogram(cs []Comparison) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "F3. Call-depth profile (fraction of calls beginning at each depth)")
		fmt.Fprintln(w, "benchmark\tmax depth\tdepth<=4\tdepth<=8\tdepth<=16")
		for _, c := range cs {
			if !c.Workload.CallHeavy {
				continue
			}
			win := c.Risc.Report.Windows
			var total uint64
			for _, n := range win.DepthHist {
				total += n
			}
			if total == 0 {
				continue
			}
			cum := func(limit int) float64 {
				var s uint64
				for d, n := range win.DepthHist {
					if d <= limit {
						s += n
					}
				}
				return 100 * float64(s) / float64(total)
			}
			fmt.Fprintf(w, "%s\t%d\t%.1f%%\t%.1f%%\t%.1f%%\n",
				c.Workload.Name, win.MaxDepth, cum(4), cum(8), cum(16))
		}
	})
}

// AblationRow is one cell of the design-choice ablation.
type AblationRow struct {
	Name           string
	Full           uint64 // windows + optimizer
	NoOpt          uint64 // windows, NOP slots
	NoWindows      uint64 // optimizer, no windows
	NoWindowsNoOpt uint64
}

// RunAblation measures cycles with each design feature toggled. The
// four configurations per workload are independent, so they go through
// the pool like the main comparison.
func RunAblation(suite []Workload) ([]AblationRow, error) {
	configs := []machine.Options{
		{DelaySlots: true, Opt: OptLevel},
		{Opt: OptLevel},
		{NoWindows: true, DelaySlots: true, Opt: OptLevel},
		{NoWindows: true, Opt: OptLevel},
	}
	var heavy []Workload
	var jobs []exec.Job
	for _, w := range suite {
		if !w.CallHeavy {
			continue
		}
		heavy = append(heavy, w)
		for _, o := range configs {
			jobs = append(jobs, job(riscBackend, w, o))
		}
	}
	runs, err := runBatch(jobs)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, w := range heavy {
		cycles := func(k int) uint64 { return runs[i*len(configs)+k].Report.Totals.Cycles }
		rows = append(rows, AblationRow{
			Name: w.Name, Full: cycles(0), NoOpt: cycles(1),
			NoWindows: cycles(2), NoWindowsNoOpt: cycles(3),
		})
	}
	return rows, nil
}

// FigAblation formats the design-feature ablation.
func FigAblation(rows []AblationRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "A1. Ablation: cycles with design features toggled (call-heavy programs)")
		fmt.Fprintln(w, "benchmark\twindows+opt\twindows only\topt only\tneither\tneither/full")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\n",
				r.Name, r.Full, r.NoOpt, r.NoWindows, r.NoWindowsNoOpt,
				float64(r.NoWindowsNoOpt)/float64(r.Full))
		}
	})
}

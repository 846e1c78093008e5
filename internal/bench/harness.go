package bench

import (
	"context"
	"fmt"

	"risc1/internal/exec"
	"risc1/internal/machine"
	"risc1/internal/obs"
)

// The harness runs every workload through the machine registry: one
// generic compile+load+run function (RunOn) whose result carries the
// machine's own run report, which is where the paper's tables read
// their numbers. Adding a machine means registering a backend — the
// harness never changes.

// Registry entries the harness measures. Resolved once; a missing one
// is a build error in the registry, not a runtime condition.
var (
	riscBackend = backend("risc1")
	ciscBackend = backend("cisc")
	rv32Backend = backend("rv32")
)

func backend(name string) *machine.Backend {
	b, ok := machine.Lookup(name)
	if !ok {
		panic("bench: machine " + name + " is not registered")
	}
	return b
}

// Run is the outcome of one workload on one machine.
type Run struct {
	Result    int32
	TextBytes int // static code size
	// Report is the machine-readable form of this run, stamped with the
	// compile options. Host-machinery sections are scrubbed: the RISC
	// icache counters differ with Options.NoICache while every simulated
	// number is identical (TestICacheDeterminism compares whole Runs).
	Report obs.Report
}

// OptLevel is the compiler optimization level the harness's composite
// measurements (CompareAll, SweepWindows, MeasureCallCost) run at.
// risc1-bench's -opt flag overrides it.
var OptLevel = 1

// NoICache globally disables the predecoded instruction cache in every
// run the harness makes, on every backend — risc1-bench's -nocache
// escape hatch.
// Simulated cycles and statistics are identical either way; only host
// speed changes.
var NoICache bool

// Parallel is the worker count the harness's composite measurements
// (CompareAll, SweepWindows, RunAblation) run with — risc1-bench's
// -parallel flag. Values below 1 mean one worker. Whatever the count,
// every result is assembled in submission order, so tables and reports
// are byte-identical across settings (TestParallelDeterminism pins it).
var Parallel = 1

// newPool builds the engine behind one composite measurement.
func newPool() *exec.Pool {
	return exec.NewPool(exec.Config{Workers: max(Parallel, 1)})
}

// RunOn compiles w for backend b (via the pool's shared program cache
// when sims is non-nil, so a sweep resubmitting one workload under many
// machine configurations compiles it once), loads it into the worker's
// cached simulator (or a fresh one outside a pool), runs it to
// completion under ctx, and verifies the result word against the
// workload's Go reference value.
func RunOn(ctx context.Context, sims *exec.Sims, b *machine.Backend, w Workload, o machine.Options) (Run, error) {
	o.NoICache = o.NoICache || NoICache
	o = b.Normalize(o)
	prog, text, passes, err := sims.Compile(ctx, b, w.Source, o)
	if err != nil {
		return Run{}, fmt.Errorf("bench %s: %w", w.Name, err)
	}
	var m machine.Machine
	if sims != nil {
		m = sims.Machine(b, o)
	} else {
		m = b.New(o)
	}
	m.Reset(prog.Entry())
	if err := prog.LoadInto(m.Mem()); err != nil {
		return Run{}, err
	}
	if err := m.RunContext(ctx); err != nil {
		return Run{}, fmt.Errorf("bench %s (%s): %w\n%s", w.Name, b.Name, err, text)
	}
	addr, ok := prog.Symbol("result")
	if !ok {
		return Run{}, fmt.Errorf("bench %s: no global named result", w.Name)
	}
	v, err := m.Mem().LoadWord(addr)
	if err != nil {
		return Run{}, err
	}
	if int32(v) != w.Expected {
		return Run{}, fmt.Errorf("bench %s (%s): result %d, want %d", w.Name, b.Name, int32(v), w.Expected)
	}
	rep := m.BuildReport(w.Name)
	b.ScrubReport(&rep)
	rep.Config.Optimized = o.DelaySlots
	rep.Config.OptLevel = o.Opt
	rep.Config.Passes = passes
	return Run{Result: int32(v), TextBytes: prog.TextBytes(), Report: rep}, nil
}

// job wraps one RunOn as a pool job.
func job(b *machine.Backend, w Workload, o machine.Options) exec.Job {
	return exec.Job{Key: w.Name + "/" + b.Name, Fn: func(ctx context.Context, sims *exec.Sims) (any, error) {
		return RunOn(ctx, sims, b, w, o)
	}}
}

// runBatch runs jobs on a pool sized by Parallel, returning their Runs
// in submission order (whatever the worker count) or the first error.
// The pool's per-worker simulators are reused across jobs; the
// cross-job leakage tests in internal/exec pin that reuse never changes
// a result.
func runBatch(jobs []exec.Job) ([]Run, error) {
	p := newPool()
	defer p.Close()
	results := p.RunBatch(context.Background(), jobs)
	runs := make([]Run, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
		runs[i] = res.Value.(Run)
	}
	return runs, nil
}

// Comparison is one workload measured on every machine variant the
// paper's tables need.
type Comparison struct {
	Workload Workload
	Risc     Run // 8 windows, delay slots optimized
	RiscNop  Run // 8 windows, unoptimized (NOPs in every slot)
	Vax      Run
	Rv32     Run // windowless, delay-slot-free RISC
}

// Compare runs one workload everywhere.
func Compare(w Workload) (Comparison, error) {
	cs, err := CompareAll([]Workload{w})
	if err != nil {
		return Comparison{}, err
	}
	return cs[0], nil
}

// CompareAll runs the whole suite through a batch pool sized by the
// package's Parallel setting: four jobs per workload (optimized RISC,
// unoptimized RISC, baseline, RV32). Output order (and therefore any
// report built from it) is the suite order regardless of worker count.
func CompareAll(suite []Workload) ([]Comparison, error) {
	jobs := make([]exec.Job, 0, 4*len(suite))
	for _, w := range suite {
		jobs = append(jobs,
			job(riscBackend, w, machine.Options{DelaySlots: true, Opt: OptLevel}),
			job(riscBackend, w, machine.Options{Opt: OptLevel}),
			job(ciscBackend, w, machine.Options{Opt: OptLevel}),
			job(rv32Backend, w, machine.Options{Opt: OptLevel}),
		)
	}
	runs, err := runBatch(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(suite))
	for i, w := range suite {
		r := runs[4*i:]
		out[i] = Comparison{Workload: w, Risc: r[0], RiscNop: r[1], Vax: r[2], Rv32: r[3]}
	}
	return out, nil
}

// Reports flattens a comparison set into the run list of an
// obs.BenchReport: for each workload the optimized RISC run, the
// unoptimized RISC run, the baseline, then the RV32 run (told apart by
// Machine and Config.Optimized).
func Reports(cs []Comparison) []obs.Report {
	out := make([]obs.Report, 0, 4*len(cs))
	for _, c := range cs {
		out = append(out, c.Risc.Report, c.RiscNop.Report, c.Vax.Report, c.Rv32.Report)
	}
	return out
}

// WindowSweep measures the overflow rate (fraction of calls that spill)
// for each window count, per call-heavy workload — the data behind the
// paper's window-size figure.
type WindowSweep struct {
	Windows   []int
	Workloads []string
	// Rate[i][j] is the overflow rate at Windows[i] for Workloads[j].
	Rate [][]float64
	// Micros[i][j] is the total simulated run time, showing how window
	// count buys performance until the overflow rate bottoms out.
	Micros [][]float64
	// Calls[j] is the total window calls made by workload j.
	Calls []uint64
}

// SweepWindows runs the call-heavy subset across window counts, one
// pool job per (window count, workload) pair. Rows are indexed by
// window count and column by workload, assembled from the batch in
// submission order, so the sweep is deterministic at any parallelism.
func SweepWindows(suite []Workload, windowCounts []int) (WindowSweep, error) {
	var sweep WindowSweep
	sweep.Windows = windowCounts
	var heavy []Workload
	for _, w := range suite {
		if w.CallHeavy {
			heavy = append(heavy, w)
			sweep.Workloads = append(sweep.Workloads, w.Name)
		}
	}
	sweep.Calls = make([]uint64, len(heavy))
	jobs := make([]exec.Job, 0, len(windowCounts)*len(heavy))
	for _, wins := range windowCounts {
		for _, w := range heavy {
			jobs = append(jobs, job(riscBackend, w, machine.Options{Windows: wins, DelaySlots: true, Opt: OptLevel}))
		}
	}
	runs, err := runBatch(jobs)
	if err != nil {
		return sweep, err
	}
	for i := range windowCounts {
		row := make([]float64, len(heavy))
		us := make([]float64, len(heavy))
		for j := range heavy {
			rep := runs[i*len(heavy)+j].Report
			if rep.Windows.Calls > 0 {
				row[j] = float64(rep.Windows.Overflows) / float64(rep.Windows.Calls)
			}
			us[j] = rep.Totals.Micros
			sweep.Calls[j] = rep.Windows.Calls
		}
		sweep.Rate = append(sweep.Rate, row)
		sweep.Micros = append(sweep.Micros, us)
	}
	return sweep, nil
}

// CallCost measures the incremental cost of one call/return pair on each
// machine, by differencing a calling loop against a call-free loop — the
// paper's procedure-call overhead comparison.
type CallCost struct {
	Machine       string
	CyclesPerCall float64
	MicrosPerCall float64
	MemWordsPer   float64 // data-memory words moved per call/return
}

const callLoopN = 2000

func callBenchSource(withCall bool) string {
	body := "s = s + leaf(i, 1);"
	if !withCall {
		body = "s = s + i + 1;"
	}
	return fmt.Sprintf(`
int result;
int leaf(int a, int b) { return a + b; }
int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < %d; i = i + 1) {
		%s
	}
	result = s;
	return 0;
}
`, callLoopN, body)
}

func callBenchExpected() int32 {
	var s int32
	for i := int32(0); i < callLoopN; i++ {
		s += i + 1
	}
	return s
}

// callMeasure runs one side of the differenced microbenchmark and
// returns the totals the subtraction needs: simulated cycles and
// data-memory bytes moved.
func callMeasure(b *machine.Backend, w Workload, o machine.Options) (cycles, memBytes uint64, err error) {
	run, err := RunOn(context.Background(), nil, b, w, o)
	if err != nil {
		return 0, 0, err
	}
	rep := run.Report
	return rep.Totals.Cycles, rep.Memory.BytesRead + rep.Memory.BytesWritten, nil
}

// MeasureCallCost returns per-call costs for RISC I with windows, RISC I
// without windows (every call spills), the CISC baseline's CALLS/RET,
// and RV32's jal/jalr with explicit frame stores.
func MeasureCallCost() ([]CallCost, error) {
	with := Workload{Name: "callcost", Source: callBenchSource(true), Expected: callBenchExpected()}
	without := Workload{Name: "callbase", Source: callBenchSource(false), Expected: callBenchExpected()}

	variants := []struct {
		label string
		b     *machine.Backend
		o     machine.Options
	}{
		{"RISC I (8 windows)", riscBackend, machine.Options{DelaySlots: true, Opt: OptLevel}},
		{"RISC I (no windows)", riscBackend, machine.Options{NoWindows: true, DelaySlots: true, Opt: OptLevel}},
		{"CISC (CALLS/RET)", ciscBackend, machine.Options{Opt: OptLevel}},
		{"RV32 (jal/jalr)", rv32Backend, machine.Options{Opt: OptLevel}},
	}
	out := make([]CallCost, 0, len(variants))
	for _, vt := range variants {
		aCycles, aBytes, err := callMeasure(vt.b, with, vt.o)
		if err != nil {
			return nil, err
		}
		bCycles, bBytes, err := callMeasure(vt.b, without, vt.o)
		if err != nil {
			return nil, err
		}
		dCycles := float64(aCycles-bCycles) / callLoopN
		dWords := float64(aBytes-bBytes) / 4 / callLoopN
		out = append(out, CallCost{
			Machine:       vt.label,
			CyclesPerCall: dCycles,
			MicrosPerCall: dCycles * vt.b.CycleNS / 1000,
			MemWordsPer:   dWords,
		})
	}
	return out, nil
}

// Command perfbench is the serving benchmark: it drives freshly built
// risc1-serve processes on loopback with one workload's generated
// requests, checks every answer, and prints one JSON result line.
//
//	perfbench -serve bin/risc1-serve -workload hot-zipf -seed 1 -seconds 10 -trace 0
//
// With -trace 0 a run is a number of rounds, each on freshly started
// servers: a set-up, an open-loop phase of Poisson arrivals at the
// workload's fixed rate, then a serial closed-loop phase. It reports the
// servers' CPU time per request, their CPU time to set up and their peak
// resident set; wall-clock latency and throughput go into the saved
// record only. With -trace 1 it starts the servers once, replaces the
// closed loop with a serial pass and replays that pass in-process with a
// span around every layer call, reporting per-layer metrics and writing
// the spans as Chrome trace_event JSON. perfbench/run.sh builds both
// binaries and is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// rounds is how many counted rounds an end-to-end run has. Each round
// starts the servers afresh, times one set-up (spawn, healthy, warm-up),
// then runs a 1/rounds slice of each measured phase. Fresh servers bound
// each round's heap by what its slices add: cold-unique's caches grow
// with every request, and the collector's work with them. Each round
// gives one set-up, and setup_s is their median.
const rounds = 11

// closedClients is the closed loop's concurrency: one request at a time.
// The servers' CPU time per request then holds each request's whole cost,
// wake-ups included, without the varying overlap of concurrent requests:
// on three hot-zipf seeds it read within 1%, against 3% with two clients.
const closedClients = 1

// metric is one named, unit-carrying measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	nproc    int
}

// outDir holds everything a run writes: server logs and cluster files
// while it runs, then result records and traces. run.sh builds into it
// too; .gitignore names it.
const outDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload: hot-zipf, cold-unique, sim-heavy or cluster3-zipf")
	seed := flag.Int64("seed", 1, "seed for every generated request")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = per-layer run with the traced in-process replay")
	serveBin := flag.String("serve", "", "risc1-serve binary")
	flag.Parse()
	// The client collects garbage only between measured phases (see
	// clientMemoryLimit), so its own pauses never land in a server's
	// latency, and it runs its Go code on one CPU, leaving the rest to the
	// servers; the in-process replays and checks take every CPU back.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(clientMemoryLimit)
	runtime.GOMAXPROCS(1)

	w, ok := workloadByName(*name)
	if !ok || *serveBin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -serve, -workload (one of "+workloadNames()+"), -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serveBin: *serveBin, nproc: runtime.NumCPU()}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rec.save(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.summary(os.Stderr)
	stampLine, _ := json.Marshal(map[string]any{"stamp": rec.Stamp})
	fmt.Println(string(stampLine))
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// record is everything one run produced: the result line, the stamp
// that says what was measured where, and the checks behind "correct".
type record struct {
	Result   result   `json:"result"`
	Stamp    stamp    `json:"stamp"`
	Problems []string `json:"problems,omitempty"`
	// Rounds holds each round's own figures, whose medians are the
	// end-to-end metrics. Wall holds the wall-clock diagnostics: the
	// latency quantiles over every round's samples at once, and the
	// medians over rounds of set-up time, throughput and guest MIPS.
	Rounds []roundStat        `json:"rounds,omitempty"`
	Wall   map[string]float64 `json:"wall,omitempty"`
}

// roundStat is one end-to-end round's figures. The CPU figures are the
// metrics; the wall-clock ones are kept as diagnostics.
type roundStat struct {
	SetupCPUS     float64 `json:"setupCPUS"`
	CPUUSPerReq   float64 `json:"cpuUSPerReq"`
	RSSMiB        float64 `json:"rssMiB"`
	SetupWallS    float64 `json:"setupWallS"`
	P50MS         float64 `json:"p50MS"`
	P99MS         float64 `json:"p99MS"`
	Throughput    float64 `json:"throughputRPS"`
	GuestMIPS     float64 `json:"guestMIPS"`
	OpenSamples   int     `json:"openSamples"`
	ClosedSamples int     `json:"closedSamples"`
}

func (r *record) set(name, unit string, v float64) {
	// JSON has no infinities: a quantile that reached a failed request
	// reads as 1e9, far beyond any bound (and checkFailed has already
	// failed the run).
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = 1e9
	}
	r.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *record) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// save writes the record under out/results.
func (r *record) save(cfg config) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.w.name, cfg.seed, boolInt(cfg.trace)))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary prints the metrics by name and unit, then any problems.
func (r *record) summary(f *os.File) {
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s seed %d: correct=%v attempted=%d failed=%d\n", r.Stamp.Workload, r.Stamp.Seed,
		r.Result.Correct, r.Result.Attempted, r.Result.Failed)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(f, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(f, "  PROBLEM:", p)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run performs one benchmark run.
func run(cfg config) (*record, error) {
	rec := &record{Result: result{Metrics: map[string]metric{}}}
	dir := filepath.Join(outDir, "run", fmt.Sprintf("%s-seed%d-%d", cfg.w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	gen := cfg.w.stream(cfg.seed)
	client := newClient(cfg.nproc)
	if cfg.trace {
		fl, warm, _, err := setUp(cfg, dir, client, gen)
		if err != nil {
			return nil, err
		}
		defer fl.stop()
		rec.Stamp = newStamp(cfg, fl)
		if err := traced(cfg, rec, fl, client, gen, warm); err != nil {
			return nil, err
		}
	} else if err := endToEnd(cfg, rec, dir, client, gen); err != nil {
		return nil, err
	}
	rec.Result.Correct = len(rec.Problems) == 0
	return rec, nil
}

// setupCost is what one set-up took: the servers' CPU seconds from spawn
// to the end of the warm-up, and the wall-clock seconds of the same span.
type setupCost struct{ cpu, wall float64 }

// setUp spawns a fresh fleet, waits until it is healthy and sends the
// workload's warm-up. It returns the fleet, the warm-up requests and what
// all of that took.
func setUp(cfg config, dir string, client *http.Client, gen func() request) (*fleet, []request, setupCost, error) {
	warm := cfg.w.warmup(gen)
	t0 := time.Now()
	fl, err := startFleet(cfg.serveBin, dir, cfg.w.replicas)
	if err != nil {
		return nil, nil, setupCost{}, err
	}
	if err := fl.waitHealthy(client, 30*time.Second); err != nil {
		fl.stop()
		return nil, nil, setupCost{}, err
	}
	outs, _ := closedLoop(client, fl.urls, warm, cfg.nproc, 0)
	cost := setupCost{wall: time.Since(t0).Seconds()}
	if bad := countFailed(outs); bad > 0 {
		fl.stop()
		return nil, nil, setupCost{}, fmt.Errorf("%d of %d warm-up requests failed", bad, len(outs))
	}
	if cost.cpu, err = fl.cpuSeconds(); err != nil {
		fl.stop()
		return nil, nil, setupCost{}, err
	}
	return fl, warm, cost, nil
}

// scheduleSeed derives the arrival-process seed of a round from the run
// seed, so arrival gaps and request choices come from different streams.
func scheduleSeed(seed int64, round int) int64 { return (seed ^ 0x5DEECE66D) + int64(round) }

// closedCap bounds how many requests a closed-loop phase of d can take:
// eight times the open-loop rate, well over the serial throughput of a
// 2-CPU host. A server that beats it ends the phase early; its cost per
// request is still measured over what ran.
func closedCap(w workload, d time.Duration) int {
	return int(w.rate*8*d.Seconds()) + 1000
}

// phases is what the measured slices of a round produced; add pools
// rounds for the checks.
type phases struct {
	openReqs, closedReqs []request
	openOuts, closedOuts []outcome
	closed               time.Duration // the closed-loop slice's length
	closedCPU            float64       // server CPU seconds the closed-loop slice took
}

func (p *phases) add(q phases) {
	p.openReqs = append(p.openReqs, q.openReqs...)
	p.closedReqs = append(p.closedReqs, q.closedReqs...)
	p.openOuts = append(p.openOuts, q.openOuts...)
	p.closedOuts = append(p.closedOuts, q.closedOuts...)
}

// endToEnd runs the rounds and sets the end-to-end metrics: the servers'
// CPU time per correct response over all counted closed loops, and the
// medians over the rounds of their CPU time to set up and their peak
// resident set. CPU time does not count the time a busy host takes the
// CPU away, so no round is spoiled the way a stall spoils a wall-clock
// figure, and the total over the rounds averages more work than a median
// of them would. The wall-clock figures — latency
// quantiles, throughput, guest MIPS — go into the record only: on a
// shared host they measure the neighbours as much as the program.
func endToEnd(cfg config, rec *record, dir string, client *http.Client, gen func() request) error {
	per := cfg.seconds / rounds * float64(time.Second)
	open, closed := time.Duration(per*openShare), time.Duration(per*(1-openShare))
	var all phases
	var pooled []outcome
	var cpu float64 // server CPU seconds over the counted closed loops
	var served int  // correct responses in them
	// Round -1 is a half-length rehearsal: its requests are checked like
	// any others, but its figures are not counted. A fresh client's first
	// phases pay for growing its heap.
	for k := -1; k < rounds; k++ {
		fl, _, cost, err := setUp(cfg, dir, client, gen)
		if err != nil {
			return err
		}
		o, c := open, closed
		if k < 0 {
			rec.Stamp = newStamp(cfg, fl)
			o, c = open/2, closed/2
		}
		ph, rss, err := measure(cfg, rec, fl, client, gen, o, c, k)
		fl.stop()
		client.CloseIdleConnections()
		if err != nil {
			return err
		}
		all.add(ph)
		if k < 0 {
			continue
		}
		pooled = append(pooled, ph.openOuts...)
		lat := sortedLatencies(ph.openOuts)
		n, instr := delivered(ph.closedOuts)
		if n == 0 {
			return fmt.Errorf("round %d: no correct response in the closed loop", k)
		}
		cpu += ph.closedCPU
		served += n
		rec.Rounds = append(rec.Rounds, roundStat{
			SetupCPUS: cost.cpu, CPUUSPerReq: ph.closedCPU / float64(n) * 1e6, RSSMiB: rss,
			SetupWallS: cost.wall, P50MS: sortedQuantile(lat, 0.50), P99MS: sortedQuantile(lat, 0.99),
			Throughput: float64(n) / ph.closed.Seconds(), GuestMIPS: float64(instr) / ph.closed.Seconds() / 1e6,
			OpenSamples: len(ph.openOuts), ClosedSamples: len(ph.closedOuts),
		})
	}
	med := func(field func(roundStat) float64) float64 {
		v := make([]float64, len(rec.Rounds))
		for i, st := range rec.Rounds {
			v[i] = field(st)
		}
		return median(v)
	}
	rec.set("setup_s", "s", med(func(st roundStat) float64 { return st.SetupCPUS }))
	rec.set("cpu_us_per_req", "us", cpu/float64(served)*1e6)
	rec.set("server_rss_mb", "MiB", med(func(st roundStat) float64 { return st.RSSMiB }))
	lat := sortedLatencies(pooled)
	rec.Wall = map[string]float64{
		"p50MS": sortedQuantile(lat, 0.50), "p99MS": sortedQuantile(lat, 0.99),
		"setupWallS":    med(func(st roundStat) float64 { return st.SetupWallS }),
		"throughputRPS": med(func(st roundStat) float64 { return st.Throughput }),
		"guestMIPS":     med(func(st roundStat) float64 { return st.GuestMIPS }),
	}

	reqs := append(all.openReqs, all.closedReqs...)
	outs := append(all.openOuts, all.closedOuts...)
	rec.Result.Attempted = len(outs)
	rec.Result.Failed = countFailed(outs)
	rec.set("ok_frac", "ratio", 1-float64(rec.Result.Failed)/float64(len(outs)))

	checkFailed(rec)
	checkLateness(rec, all.openOuts)
	checkValues(rec, outs)
	return checkInstructions(rec, cfg, reqs, outs, nil, maxChecked)
}

// openShare is the share of a round's measured time given to the open
// loop, which serves the checks, the resident-set reading and the
// latency diagnostics; the closed loop, which the CPU cost per request
// is measured over, takes the rest.
const openShare = 0.125

// measure runs round k's phases on fl: the open loop for open, then the
// closed loop for closed. It checks the round's /metrics ledger and
// returns the peak resident set read after the open loop, whose work is
// fixed by the seed; the closed loop's request count varies with speed,
// and every cold request grows the caches.
func measure(cfg config, rec *record, fl *fleet, client *http.Client, gen func() request, open, closed time.Duration, k int) (phases, float64, error) {
	due := poissonSchedule(scheduleSeed(cfg.seed, k), cfg.w.rate, open)
	ph := phases{openReqs: take(gen, len(due))}
	closedReqs := take(gen, closedCap(cfg.w, closed))

	before, err := fl.scrape(client)
	if err != nil {
		return phases{}, 0, err
	}
	runtime.GC()
	ph.openOuts = openLoop(client, fl.urls, ph.openReqs, due, cfg.nproc)
	rss, err := fl.rssMiB()
	if err != nil {
		return phases{}, 0, err
	}
	runtime.GC()
	cpu0, err := fl.cpuSeconds()
	if err != nil {
		return phases{}, 0, err
	}
	ph.closedOuts, ph.closed = closedLoop(client, fl.urls, closedReqs, closedClients, closed)
	cpu1, err := fl.cpuSeconds()
	if err != nil {
		return phases{}, 0, err
	}
	ph.closedCPU = cpu1 - cpu0
	// Copied, so the requests the slice never reached can be collected.
	ph.closedReqs = append([]request(nil), closedReqs[:len(ph.closedOuts)]...)
	after, err := fl.scrape(client)
	if err != nil {
		return phases{}, 0, err
	}
	checkLedger(rec, delta(before, after), len(ph.openOuts)+len(ph.closedOuts))
	return ph, rss, nil
}

// clientMemoryLimit caps the client's heap. Garbage collection is off,
// and each measured phase starts from a fresh runtime.GC(), so the limit
// is what triggers a collection if a phase allocates more than it leaves
// room for; phases this benchmark sizes stay below it.
const clientMemoryLimit = 512 << 20

// maxChecked caps how many distinct (machine, source) pairs an
// end-to-end run replays to check instruction counts; past it the pairs
// are sampled evenly. Only cold-unique has more, and its traced runs
// check every pair.
const maxChecked = 3000

// sortedLatencies returns the outcomes' latencies in ascending order.
func sortedLatencies(outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = o.latency
	}
	sort.Float64s(lat)
	return lat
}

// delivered counts the correct responses and sums their instructions.
func delivered(outs []outcome) (n int, instr uint64) {
	for _, o := range outs {
		if o.ok {
			n++
			instr += o.instr
		}
	}
	return n, instr
}

func countFailed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if !o.ok {
			n++
		}
	}
	return n
}

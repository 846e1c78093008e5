package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"risc1/internal/cc/opt"
	"risc1/internal/exec"
	"risc1/internal/peer"
)

// layers are the in-process layers whose self-time shares are reported.
var layers = []string{"serve", "rcache", "exec", "cc", "asm", "mem", "machine", "obs"}

func errWrongReplay(rq request, got int32) error {
	return fmt.Errorf("replay of %s on %s returned %d, want %d", rq.Name, rq.Machine, got, rq.Want)
}

// replayRun is one in-process replay of a request list.
type replayRun struct {
	e      *engine
	served []served
}

// replay serves reqs in order on a fresh engine, after timing the pool's
// dispatch of no-op jobs.
func replay(tr *tracer, reqs []request) (replayRun, error) {
	runtime.GC() // both replays start from the same heap
	e := newEngine(tr)
	defer e.close()
	ctx := context.Background()
	if err := e.dispatchProbe(ctx, 200); err != nil {
		return replayRun{}, err
	}
	out := replayRun{e: e, served: make([]served, len(reqs))}
	for i, rq := range reqs {
		s, err := e.serve(ctx, i, rq.body)
		if err != nil {
			return replayRun{}, err
		}
		if s.value != rq.Want {
			return replayRun{}, errWrongReplay(rq, s.value)
		}
		out.served[i] = s
	}
	// The caches are done with; dropping them keeps the next replay's
	// heap, and so its collector's work, the same as this one's.
	e.results, e.progs, e.imgs = nil, nil, nil
	return out, nil
}

// traced is the per-layer run: an open-loop phase (generator validity,
// /metrics deltas), a serial pass whose requests are then replayed
// in-process twice — with spans and without — and the layer metrics
// computed from both.
func traced(cfg config, rec *record, fl *fleet, client *http.Client, gen func() request, warm []request) error {
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	quarter := half / 2
	due := poissonSchedule(scheduleSeed(cfg.seed, 0), cfg.w.rate, half)
	openReqs := take(gen, len(due))
	serialReqs := take(gen, closedCap(cfg.w, quarter)/2)

	before, err := fl.scrape(client)
	if err != nil {
		return err
	}
	runtime.GC()
	openOuts := openLoop(client, fl.urls, openReqs, due, cfg.nproc)
	runtime.GC()

	// The serial pass: one request at a time, so each round trip can be
	// set against the replay of the same request.
	var serialOuts []outcome
	var bodies [][]byte
	var buf bytes.Buffer
	stop := time.Now().Add(quarter)
	for i := 0; i < len(serialReqs) && time.Now().Before(stop); i++ {
		t0 := time.Now()
		o, body := post(client, fl.urls[i%len(fl.urls)], serialReqs[i], &buf)
		if o.ok {
			o.latency = float64(time.Since(t0)) / 1e6
		}
		serialOuts = append(serialOuts, o)
		bodies = append(bodies, bytes.Clone(body))
	}
	serialReqs = serialReqs[:len(serialOuts)]
	after, err := fl.scrape(client)
	if err != nil {
		return err
	}
	healthz, err := healthzRTTs(client, fl.urls, 200)
	if err != nil {
		return err
	}
	fl.stop()

	outs := append(append([]outcome(nil), openOuts...), serialOuts...)
	rec.Result.Attempted = len(outs)
	rec.Result.Failed = countFailed(outs)
	checkFailed(rec)
	checkLateness(rec, openOuts)
	checkValues(rec, outs)
	d := delta(before, after)
	checkLedger(rec, d, len(outs))

	// Replay the warm-up and the serial pass in-process: first with
	// spans, then without, to price the spans themselves.
	replayed := append(append([]request(nil), warm...), serialReqs...)
	defer inProcess(cfg.nproc)()
	tr := newTracer(true)
	withSpans, err := replay(tr, replayed)
	if err != nil {
		return err
	}
	plain, err := replay(newTracer(false), replayed)
	if err != nil {
		return err
	}

	// The serial pass against its replay: same instruction count, same
	// bytes, and the HTTP residual.
	known := map[string]uint64{}
	for i, rq := range replayed {
		known[rq.pairKey()] = withSpans.served[i].instructions
	}
	var residual []float64
	identical, mismatched := 0, 0
	for i, o := range serialOuts {
		s := withSpans.served[len(warm)+i]
		if !o.ok {
			continue
		}
		if o.instr != s.instructions {
			mismatched++
		}
		if string(bodies[i]) == string(s.body) {
			identical++
		}
		residual = append(residual, o.latency*1e3-float64(plain.served[len(warm)+i].total)/1e3)
	}
	if mismatched > 0 {
		rec.problem("%d serial responses: instruction count differs from the traced replay's", mismatched)
	}
	// The replay copies glue the server keeps private; a response it does
	// not reproduce byte for byte means the copy has drifted from the
	// server, and the per-layer figures no longer describe what it runs.
	if okSerial := len(serialOuts) - countFailed(serialOuts); identical != okSerial {
		rec.problem("%d of %d serial responses differ from the in-process replay's bytes", okSerial-identical, okSerial)
	}
	if err := checkInstructions(rec, cfg, openReqs, openOuts, known, 0); err != nil {
		return err
	}

	if err := writeTrace(cfg, tr.spans); err != nil {
		return err
	}

	// loadgen and serve
	rec.set("loadgen.late_p99_ms", "ms", quantile(lateness(openOuts), 0.99))
	rec.set("loadgen.failed_frac", "ratio", float64(rec.Result.Failed)/float64(max(1, len(outs))))
	// Wall-clock latency from the due time: reported here, where it has
	// no bound, because on a shared host it moves with the neighbours.
	openLat := sortedLatencies(openOuts)
	rec.set("serve.latency_p50_ms", "ms", sortedQuantile(openLat, 0.50))
	rec.set("serve.latency_p99_ms", "ms", sortedQuantile(openLat, 0.99))
	rec.set("serve.healthz_rtt_us", "us", median(healthz))
	rec.set("serve.residual_us", "us", median(residual))
	admitted := d["risc1_http_requests_admitted_total"]
	rec.set("serve.requests", "count", admitted)
	rec.set("serve.rejected", "count", d["risc1_http_requests_rejected_total"])

	// rcache and the level-1 caches, from /metrics: the share of
	// admitted requests that did not run the cache's computation.
	notMissed := func(prefix string) float64 {
		if admitted == 0 {
			return 0
		}
		return 1 - d[prefix+"_misses_total"]/admitted
	}
	rec.set("rcache.hit_ratio", "ratio", notMissed("risc1_rcache"))
	rec.set("progcache.hit_ratio", "ratio", notMissed("risc1_progcache"))
	rec.set("imgcache.hit_ratio", "ratio", notMissed("risc1_imgcache"))
	rec.set("rcache.evictions", "count", d["risc1_rcache_evictions_total"])

	// exec
	rec.set("exec.failed", "count", d["risc1_pool_jobs_failed_total"])
	rec.set("exec.retries", "count", d["risc1_pool_job_retries_total"])

	// peer and cluster
	routed := d["risc1_peer_routed_total"]
	rec.set("peer.routed_ratio", "ratio", ratio(routed, admitted))
	rec.set("peercache.hit_ratio", "ratio", ratio(d["risc1_peercache_hits_total"], routed))
	rec.set("peer.fetch_errors", "count", d["risc1_peer_fetch_errors_total"])
	rec.set("cluster.fallbacks", "count", d["risc1_cluster_fallback_local_total"])
	rec.set("peer.ring_owner_ns", "ns", ringOwnerNS(serialReqs))

	// obs: response size as served
	var sizes []float64
	for _, o := range outs {
		sizes = append(sizes, float64(o.bytes))
	}
	rec.set("obs.response_bytes", "bytes", median(sizes))

	spanMetrics(rec, tr.spans, withSpans.e, len(warm))

	// Overhead of the spans: in-process time with them over without.
	var on, off time.Duration
	for i := range replayed {
		on += withSpans.served[i].total
		off += plain.served[i].total
	}
	rec.set("trace.overhead_pct", "%", 100*(on.Seconds()-off.Seconds())/off.Seconds())
	rec.set("trace.spans", "count", float64(len(tr.spans)))
	rec.set("replay.identical_ratio", "ratio", ratio(float64(identical), float64(len(serialOuts)-countFailed(serialOuts))))

	isolation(cfg, rec)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics turns the spans into per-call medians, per-machine
// simulation totals, and the steady-state (post-warm-up) layer shares.
func spanMetrics(rec *record, spans []span, e *engine, warm int) {
	calls := perRequest(spans)
	us := func(metricName, spanName string) {
		rec.set(metricName, "us", median(calls[spanName])/1e3)
	}
	us("rcache.key_us", "rcache.key")
	rec.set("rcache.hit_us", "us", median(durations(spans, "rcache.do", "hit"))/1e3)

	us("cc.parse_us", "cc.parse")
	us("cc.lower_us", "cc.lower")
	for _, p := range opt.Passes {
		us("cc.opt."+p.Name+"_us", "cc.opt."+p.Name)
	}
	for _, m := range machines {
		us("cc.codegen."+m+"_us", "cc.codegen."+m)
		us("asm."+m+"_us", "asm."+m)
		us("machine."+m+".run_us", "machine."+m+".run")
		rec.set("machine."+m+".instructions", "count", float64(e.instr[m]))
		rec.set("machine."+m+".guest_mips", "MIPS", ratio(float64(e.instr[m]), float64(e.runNS[m])/1e3))
	}
	rec.set("exec.dispatch_us", "us", median(durations(spans, "exec.noop", ""))/1e3)
	us("exec.queue_wait_us", "exec.queue")
	us("mem.snapshot_us", "mem.snapshot")
	us("mem.restore_us", "mem.restore")
	rec.set("mem.touched_pages", "pages", median(e.pages))
	us("obs.build_report_us", "obs.build_report")
	us("obs.report_json_us", "obs.report_json")

	steady := reindex(spans, warm)
	var roots []float64
	for _, s := range steady {
		if s.Parent < 0 && s.Req >= 0 {
			roots = append(roots, float64(s.dur()))
		}
	}
	rec.set("inproc.total_us", "us", median(roots)/1e3)
	shares := layerShares(steady)
	for _, l := range layers {
		rec.set("inproc."+l+".share", "ratio", shares[l])
	}
}

// durations lists the durations of the spans with a name (and, when arg
// is not empty, that detail).
func durations(spans []span, name, arg string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (arg == "" || s.Arg == arg) {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// reindex returns the spans of requests >= from, with parent indices
// rewritten to point into the returned slice.
func reindex(spans []span, from int) []span {
	pos := make(map[int]int)
	var out []span
	for i, s := range spans {
		if s.Req < from {
			continue
		}
		pos[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = pos[p]
		}
	}
	return out
}

// isolation checks that the workload isolates the layer it is meant to.
func isolation(cfg config, rec *record) {
	m := func(n string) float64 { return rec.Result.Metrics[n].Value }
	switch cfg.w.name {
	case "hot-zipf", "cluster3-zipf":
		if v := m("rcache.hit_ratio"); v < 0.99 {
			rec.problem("rcache.hit_ratio %.4f < 0.99: not a hit-path workload", v)
		}
	case "cold-unique":
		if v := m("progcache.hit_ratio"); v != 0 {
			rec.problem("progcache.hit_ratio %.4f != 0: requests repeated a program", v)
		}
		if v := m("inproc.cc.share") + m("inproc.asm.share"); v <= 0.5 {
			rec.problem("cc+asm take %.2f of in-process time, not most of it", v)
		}
	case "sim-heavy":
		if v := m("rcache.hit_ratio"); v != 0 {
			rec.problem("rcache.hit_ratio %.4f != 0", v)
		}
		if v := m("progcache.hit_ratio"); v < 0.99 {
			rec.problem("progcache.hit_ratio %.4f < 0.99", v)
		}
		if v := m("inproc.machine.share"); v < 0.8 {
			rec.problem("simulation takes %.2f of in-process time, below 0.8", v)
		}
	}
}

// healthzRTTs times n serial GET /healthz round trips, in µs.
func healthzRTTs(c *http.Client, urls []string, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		resp, err := c.Get(urls[i%len(urls)] + "/healthz")
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out[i] = float64(time.Since(t0)) / 1e3
	}
	return out, nil
}

// ringOwnerNS times peer.Ring.Owner over the requests' content
// addresses on a three-replica ring: the median of nine passes' mean
// ns per lookup.
func ringOwnerNS(reqs []request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	ring := peer.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}, peer.DefaultVirtualNodes)
	keys := make([]string, len(reqs))
	for i, rq := range reqs {
		spec := exec.Spec{Name: rq.Name, Machine: rq.Machine, Source: rq.Source, Opt: 1, DelaySlots: true, Fuel: serveMaxFuel}
		keys[i] = string(spec.CacheKey(serveMaxTimeout))
	}
	var passes []float64
	sink := 0
	for p := 0; p < 9; p++ {
		t0 := time.Now()
		for _, k := range keys {
			sink += len(ring.Owner(k))
		}
		passes = append(passes, float64(time.Since(t0))/float64(len(keys)))
	}
	_ = sink
	return median(passes)
}

// writeTrace saves the spans as Chrome trace_event JSON under out/traces.
func writeTrace(cfg config, spans []span) error {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed)))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

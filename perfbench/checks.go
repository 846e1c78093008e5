package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
)

// maxLateP99 is the generator lag past which an open-loop phase no
// longer offered the load it claims, and the run is invalid. Latency
// runs from the due time, so smaller lags are counted in it rather than
// hidden.
const maxLateP99 = 100.0 // ms

func lateness(outs []outcome) []float64 {
	late := make([]float64, len(outs))
	for i, o := range outs {
		late[i] = o.sentLate
	}
	return late
}

func checkLateness(rec *record, open []outcome) {
	if p99 := quantile(lateness(open), 0.99); p99 > maxLateP99 {
		rec.problem("generator lag p99 %.2f ms exceeds %.0f ms: the open-loop phase is invalid", p99, maxLateP99)
	}
}

// checkFailed fails the run on any failed request: a non-200 answer, a
// 429, a transport error or a wrong value. Every workload is sized so
// that none fails.
func checkFailed(rec *record) {
	if n := rec.Result.Failed; n > 0 {
		rec.problem("%d of %d requests failed", n, rec.Result.Attempted)
	}
}

// checkValues fails the run on any answer whose value differs from the
// one progen or the bench reference computed.
func checkValues(rec *record, outs []outcome) {
	n := 0
	for _, o := range outs {
		if o.wrong {
			n++
		}
	}
	if n > 0 {
		rec.problem("%d responses carried a wrong value", n)
	}
}

// checkLedger reconciles /metrics deltas over one fleet's measured
// phases: every request was admitted or refused, and every result-cache
// lookup (hit, miss or coalesced) is accounted for by an admitted request
// served here, a relay served for a peer, or a local fallback.
func checkLedger(rec *record, d counters, attempted int) {
	admitted := d["risc1_http_requests_admitted_total"]
	if got := admitted + d["risc1_http_requests_rejected_total"]; got != float64(attempted) {
		rec.problem("server admitted+rejected %v requests, client sent %d", got, attempted)
	}
	lookups := d["risc1_rcache_hits_total"] + d["risc1_rcache_misses_total"] + d["risc1_rcache_coalesced_total"]
	want := admitted - d["risc1_peer_routed_total"] + d["risc1_peer_served_total"] + d["risc1_cluster_fallback_local_total"]
	if lookups != want {
		rec.problem("rcache hits+misses+coalesced = %v, want %v (admitted - routed + served + fallbacks)", lookups, want)
	}
}

// checkInstructions fails the run unless every (machine, source) pair
// was reported with one instruction count, and that count equals the
// in-process replay's. known holds counts the traced replay already
// produced; the rest are computed here — at most limit of them, sampled
// evenly, when limit > 0.
func checkInstructions(rec *record, cfg config, reqs []request, outs []outcome, known map[string]uint64, limit int) error {
	seen := map[string]uint64{}
	var todo []request
	split := 0
	for i, o := range outs {
		if !o.ok {
			continue
		}
		k := reqs[i].pairKey()
		if n, ok := seen[k]; ok {
			if n != o.instr {
				split++
			}
			continue
		}
		seen[k] = o.instr
		if _, ok := known[k]; !ok {
			todo = append(todo, reqs[i])
		}
	}
	if split > 0 {
		rec.problem("%d responses disagree with an earlier instruction count for the same (machine, source)", split)
	}
	if limit > 0 && len(todo) > limit {
		sample := make([]request, limit)
		for i := range sample {
			sample[i] = todo[i*len(todo)/limit]
		}
		todo = sample
	}
	counts, err := replayCounts(cfg.nproc, todo)
	if err != nil {
		return err
	}
	for k, v := range known {
		counts[k] = v
	}
	bad, checked := 0, 0
	for k, n := range seen {
		c, ok := counts[k]
		if !ok {
			continue
		}
		checked++
		if c != n {
			bad++
		}
	}
	if bad > 0 {
		rec.problem("%d of %d (machine, source) pairs: served instruction count differs from the replay's", bad, checked)
	}
	return nil
}

// inProcess gives the in-process replays what risc1-serve itself runs
// with — every CPU and the default garbage collector — in place of the
// load generator's settings, and returns the function that restores them.
func inProcess(nproc int) func() {
	procs := runtime.GOMAXPROCS(nproc)
	gc := debug.SetGCPercent(100)
	return func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}
}

// replayCounts serves reqs on an untraced in-process engine, workers at
// a time, and returns each pair's instruction count. A replayed value
// that differs from the expected one is an error: the reference itself
// would be wrong.
func replayCounts(workers int, reqs []request) (map[string]uint64, error) {
	defer inProcess(workers)()
	e := newEngine(newTracer(false))
	defer e.close()
	counts := make(map[string]uint64, len(reqs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s, err := e.serve(context.Background(), i, reqs[i].body)
				if err == nil && s.value != reqs[i].Want {
					err = errWrongReplay(reqs[i], s.value)
				}
				mu.Lock()
				if err == nil {
					counts[reqs[i].pairKey()] = s.instructions
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return counts, firstErr
}

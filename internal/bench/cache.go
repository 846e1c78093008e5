package bench

import (
	"context"
	"fmt"
	"text/tabwriter"
	"time"

	"risc1/internal/exec"
	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// The cache sweep is a host-speed measurement (like the icache A/B),
// not a simulated one: it shows what the content-addressed result cache
// buys a serving deployment on repeated workloads. Simulated numbers
// are untouched — a cache hit returns the byte-identical report the
// cold run produced, which is the whole point.

// CacheRow is one workload's cold-vs-hit timing.
type CacheRow struct {
	Workload string
	ColdMS   float64 // compile + simulate, first request
	HitMS    float64 // mean cached-request latency over the repeats
	Speedup  float64 // ColdMS / HitMS
}

// CacheSweep is the repeated-workload measurement behind risc1-bench
// -cache.
type CacheSweep struct {
	Repeats int
	Rows    []CacheRow
	Stats   obs.CacheStats
}

// SweepCache runs every workload once cold and `repeats` times hot
// through a result-cached pool, timing the host-side latency of each
// path. Every hot run is verified to be a cache hit and to return the
// workload's expected checksum, so the speedup is measured over
// byte-identical answers, never over skipped work.
func SweepCache(suite []Workload, repeats int) (CacheSweep, error) {
	if repeats < 1 {
		repeats = 1
	}
	p := newPool()
	defer p.Close()
	cached := exec.NewCached(p, 256<<20)
	sweep := CacheSweep{Repeats: repeats}

	for _, w := range suite {
		spec := exec.Spec{
			Name:       w.Name,
			Source:     w.Source,
			Opt:        OptLevel,
			DelaySlots: true,
		}
		start := time.Now()
		cold, out, err := cached.Run(context.Background(), spec, 0)
		coldMS := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			return sweep, err
		}
		if cold.Err != nil {
			return sweep, fmt.Errorf("bench %s (cache, cold): %w", w.Name, cold.Err)
		}
		if out != rcache.Miss {
			return sweep, fmt.Errorf("bench %s (cache): cold run classified %q, want miss", w.Name, out)
		}
		if cold.Value != w.Expected {
			return sweep, fmt.Errorf("bench %s (cache, cold): result %d, want %d", w.Name, cold.Value, w.Expected)
		}

		var hitTotal time.Duration
		for i := 0; i < repeats; i++ {
			start = time.Now()
			hot, out, err := cached.Run(context.Background(), spec, 0)
			hitTotal += time.Since(start)
			if err != nil {
				return sweep, err
			}
			if hot.Err != nil {
				return sweep, fmt.Errorf("bench %s (cache, hot %d): %w", w.Name, i, hot.Err)
			}
			if out != rcache.Hit {
				return sweep, fmt.Errorf("bench %s (cache): hot run %d classified %q, want hit", w.Name, i, out)
			}
			if hot.Value != w.Expected {
				return sweep, fmt.Errorf("bench %s (cache, hot %d): result %d, want %d", w.Name, i, hot.Value, w.Expected)
			}
		}
		hitMS := float64(hitTotal.Microseconds()) / 1000 / float64(repeats)
		row := CacheRow{Workload: w.Name, ColdMS: coldMS, HitMS: hitMS}
		if hitMS > 0 {
			row.Speedup = coldMS / hitMS
		}
		sweep.Rows = append(sweep.Rows, row)
	}
	sweep.Stats = cached.Stats()
	return sweep, nil
}

// TableCacheSweep renders the sweep. Timings are host wall-clock and
// vary run to run; the counter line is exact.
func TableCacheSweep(s CacheSweep) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "Result cache: cold vs cached request latency (host time, %d hot repeats)\n", s.Repeats)
		fmt.Fprintln(w, "workload\tcold ms\thit ms\tspeedup")
		for _, r := range s.Rows {
			fmt.Fprintf(w, "%s\t%.3f\t%.4f\t%.0fx\n", r.Workload, r.ColdMS, r.HitMS, r.Speedup)
		}
		fmt.Fprintf(w, "cache counters: %d misses, %d hits, %d coalesced, %d evictions (hits+misses+coalesced == requests)\n",
			s.Stats.Misses, s.Stats.Hits, s.Stats.Coalesced, s.Stats.Evictions)
	})
}

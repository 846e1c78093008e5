package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// LogHist is a log-spaced latency histogram with quantile estimation —
// the load generator's measurement primitive and, under HistogramVec,
// the series behind risc1-serve's /metrics latency family. It takes its
// layout at construction: a load test wants finer resolution than an
// exporter needs, while the exporter's layout is frozen so every serve
// replica exports identical Prometheus bounds.
//
// Quantiles are conservative: Quantile(q) returns the UPPER bound of the
// bucket holding the q-th observation, so "p99 = 3.2ms" means at least
// 99% of requests finished within 3.2ms. The error is bounded by the
// growth factor, and — unlike a sampled or streaming estimator — the
// answer is a pure function of the observation multiset, which is what
// lets fixed-seed load runs pin byte-identical reports.
type LogHist struct {
	mu     sync.Mutex
	bounds []float64 // bucket upper bounds in seconds, ascending
	counts []uint64  // len(bounds)+1; the last slot is +Inf
	count  uint64
	sum    time.Duration
}

// NewLogHist builds a histogram of n log-spaced buckets starting at
// upper bound lo and growing by the given factor per bucket, plus an
// implicit +Inf bucket. Growth must be > 1.
func NewLogHist(lo time.Duration, growth float64, n int) *LogHist {
	bounds := make([]float64, n)
	v := lo.Seconds()
	for i := range bounds {
		bounds[i] = v
		v *= growth
	}
	return &LogHist{bounds: bounds, counts: make([]uint64, n+1)}
}

// DefaultLoadHist is the load generator's layout: 10 µs to ~1100 s in
// half-octave steps (factor √2, ±~20% quantile resolution).
func DefaultLoadHist() *LogHist {
	return NewLogHist(10*time.Microsecond, math.Sqrt2, 54)
}

// Observe records one duration.
func (h *LogHist) Observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, sec)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *LogHist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observed durations.
func (h *LogHist) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the upper bound (in seconds) of the bucket containing
// the q-th observation, for q in (0, 1]. Observations in the +Inf bucket
// report the top finite bound times the layout's growth — a finite,
// deterministic stand-in. Zero observations return 0.
func (h *LogHist) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			// +Inf bucket: report one growth step past the top bound.
			if n := len(h.bounds); n >= 2 {
				return h.bounds[n-1] * (h.bounds[n-1] / h.bounds[n-2])
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1] // unreachable: cum == count >= rank
}

// Buckets returns the nonzero buckets as (upper bound, count) pairs in
// ascending bound order — the sparse form the loadgen report embeds. The
// +Inf bucket renders with a bound of 0 meaning "beyond the top bound";
// it is last, so the shape stays unambiguous.
func (h *LogHist) Buckets() []LoadBucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []LoadBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		b := LoadBucket{Count: c}
		if i < len(h.bounds) {
			b.LE = h.bounds[i]
		}
		out = append(out, b)
	}
	return out
}

// Summary folds the histogram into the report's latency section.
func (h *LogHist) Summary() *LatencySummary {
	return &LatencySummary{
		Count:      h.Count(),
		SumSeconds: h.Sum().Seconds(),
		P50:        h.Quantile(0.50),
		P90:        h.Quantile(0.90),
		P99:        h.Quantile(0.99),
		P999:       h.Quantile(0.999),
		Buckets:    h.Buckets(),
	}
}

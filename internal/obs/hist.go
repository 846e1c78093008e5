package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Latency histograms for risc1-serve's /metrics: LogHist series with a
// fixed log-spaced layout, rendered in the Prometheus histogram text
// format. The layout is compiled in rather than configurable — every
// replica exports the same bounds, which is what makes fleet-wide
// quantile aggregation valid.

// newLatencyHist returns one series' histogram: upper bounds doubling
// from 100 µs to ~26 s. Requests are bounded by -max-timeout (10 s by
// default), so the top finite bucket comfortably covers every outcome
// short of a stall; +Inf is implicit.
func newLatencyHist() *LogHist { return NewLogHist(100*time.Microsecond, 2, 19) }

// HistogramVec partitions latency observations by a small fixed set of
// label values — risc1-serve labels by request outcome and result-cache
// state. Unknown label combinations materialize on first use; the label
// value sets are bounded by construction (stable error codes, three
// cache states), so the metric family stays small.
type HistogramVec struct {
	name   string
	labels []string

	mu sync.Mutex
	hs map[string]*LogHist // key: label values joined with \x00
}

// NewHistogramVec names the metric family and its label names, in render
// order.
func NewHistogramVec(name string, labels ...string) *HistogramVec {
	return &HistogramVec{name: name, labels: labels, hs: make(map[string]*LogHist)}
}

// Observe records d under the given label values (one per label name).
func (v *HistogramVec) Observe(d time.Duration, values ...string) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s observed with %d label values, want %d", v.name, len(values), len(v.labels)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	h, ok := v.hs[key]
	if !ok {
		h = newLatencyHist()
		v.hs[key] = h
	}
	v.mu.Unlock()
	h.Observe(d)
}

// Prometheus renders the whole family in the Prometheus histogram text
// exposition format: cumulative _bucket series with le labels, plus
// _sum and _count, one set per label combination, sorted for stable
// output.
func (v *HistogramVec) Prometheus() string {
	v.mu.Lock()
	keys := make([]string, 0, len(v.hs))
	for k := range v.hs {
		keys = append(keys, k)
	}
	hs := make(map[string]*LogHist, len(v.hs))
	for k, h := range v.hs {
		hs[k] = h
	}
	v.mu.Unlock()
	sort.Strings(keys)

	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE %s histogram\n", v.name)
	for _, key := range keys {
		h := hs[key]
		values := strings.Split(key, "\x00")
		var lb strings.Builder
		for i, name := range v.labels {
			if i > 0 {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, "%s=%q", name, values[i])
		}
		labels := lb.String()

		h.mu.Lock()
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket{%s,le=%q} %d\n", v.name, labels, formatBound(bound), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(&b, "%s_bucket{%s,le=\"+Inf\"} %d\n", v.name, labels, cum)
		fmt.Fprintf(&b, "%s_sum{%s} %g\n", v.name, labels, h.sum.Seconds())
		fmt.Fprintf(&b, "%s_count{%s} %d\n", v.name, labels, h.count)
		h.mu.Unlock()
	}
	return b.String()
}

// formatBound renders a bucket bound the way Prometheus clients expect:
// shortest decimal form, no exponent for these magnitudes.
func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

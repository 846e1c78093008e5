package obs

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramBuckets: observations land in the right log-spaced
// bucket (bounds are inclusive, Prometheus le semantics) and the
// rendered _bucket series is cumulative.
func TestHistogramBuckets(t *testing.T) {
	v := NewHistogramVec("test_seconds", "outcome")
	v.Observe(50*time.Microsecond, "ok")  // below the first bound -> le="0.0001"
	v.Observe(100*time.Microsecond, "ok") // exactly the first bound -> le="0.0001"
	v.Observe(150*time.Microsecond, "ok") // -> le="0.0002"
	v.Observe(time.Minute, "ok")          // past the top finite bound -> +Inf only

	text := v.Prometheus()
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{outcome="ok",le="0.0001"} 2` + "\n",
		`test_seconds_bucket{outcome="ok",le="0.0002"} 3` + "\n",
		`test_seconds_bucket{outcome="ok",le="26.2144"} 3` + "\n", // top of 19 doubling bounds
		`test_seconds_bucket{outcome="ok",le="+Inf"} 4` + "\n",
		`test_seconds_count{outcome="ok"} 4` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Every finite bucket at or above 0.0002 must hold the cumulative 3.
	if strings.Contains(text, `le="0.0004"} 2`) {
		t.Error("buckets are not cumulative")
	}
}

// TestHistogramVecLabels: separate label values get separate series,
// rendered deterministically (sorted), and the label order follows the
// declaration.
func TestHistogramVecLabels(t *testing.T) {
	v := NewHistogramVec("lat", "outcome", "cache")
	v.Observe(time.Millisecond, "ok", "hit")
	v.Observe(2*time.Millisecond, "ok", "miss")
	v.Observe(3*time.Millisecond, "deadline", "none")

	text := v.Prometheus()
	for _, want := range []string{
		`lat_count{outcome="ok",cache="hit"} 1`,
		`lat_count{outcome="ok",cache="miss"} 1`,
		`lat_count{outcome="deadline",cache="none"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if a, b := v.Prometheus(), v.Prometheus(); a != b {
		t.Error("render is not deterministic")
	}
}

// TestHistogramSum: _sum accumulates in seconds.
func TestHistogramSum(t *testing.T) {
	v := NewHistogramVec("s", "l")
	v.Observe(1500*time.Millisecond, "x")
	v.Observe(500*time.Millisecond, "x")
	if text := v.Prometheus(); !strings.Contains(text, `s_sum{l="x"} 2`+"\n") {
		t.Errorf("sum wrong:\n%s", text)
	}
}

package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.99, 3.97}, {1, 4},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if s[0] != 4 || s[1] != 1 {
		t.Errorf("quantile reordered its input: %v", s)
	}
}

func TestQuantileSmallInputs(t *testing.T) {
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// A 5% change must read as 5%, not as 0% or a whole 1.41x bucket.
func TestQuantileIsNotBucketed(t *testing.T) {
	base := make([]float64, 1000)
	for i := range base {
		base[i] = 1 + float64(i)/1000
	}
	slower := make([]float64, len(base))
	for i, v := range base {
		slower[i] = v * 1.05
	}
	for _, q := range []float64{0.5, 0.99} {
		ratio := quantile(slower, q) / quantile(base, q)
		if math.Abs(ratio-1.05) > 1e-9 {
			t.Errorf("q=%v: ratio %v, want 1.05", q, ratio)
		}
	}
}

func TestFailedSamplesPropagate(t *testing.T) {
	s := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("median with one failure = %v, want 2.5", got)
	}
	if got := quantile(s, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 reaching a failure = %v, want +Inf", got)
	}
}

// The record's pooled quantiles pool the rounds' raw samples: a tail
// that only one round had still sets the pooled p99, and a failure in
// any round reaches the quantiles that touch it.
func TestRoundsPoolRawSamples(t *testing.T) {
	var quiet, slow phases
	for i := 0; i < 99; i++ {
		quiet.openOuts = append(quiet.openOuts, outcome{ok: true, latency: 1, instr: 10})
		slow.openOuts = append(slow.openOuts, outcome{ok: true, latency: 1, instr: 10})
	}
	slow.openOuts = append(slow.openOuts, outcome{ok: true, latency: 50}, outcome{ok: true, latency: 50},
		outcome{ok: true, latency: 50}, outcome{latency: math.Inf(1)})
	var all phases
	all.add(quiet)
	all.add(slow)
	lat := sortedLatencies(all.openOuts)
	if len(lat) != 202 || lat[0] != 1 || !math.IsInf(lat[201], 1) {
		t.Fatalf("pooled %d samples from %v to %v", len(lat), lat[0], lat[len(lat)-1])
	}
	if got := sortedQuantile(lat, 0.99); got != 50 {
		t.Errorf("pooled p99 = %v, want 50", got)
	}
	if got := sortedQuantile(sortedLatencies(quiet.openOuts), 0.99); got != 1 {
		t.Errorf("quiet round's p99 = %v, want 1", got)
	}
	if got := sortedQuantile(lat, 1); !math.IsInf(got, 1) {
		t.Errorf("pooled max = %v, want +Inf", got)
	}
	if n, instr := delivered(all.openOuts); n != 201 || instr != 1980 {
		t.Errorf("delivered %d responses with %d instructions, want 201 and 1980", n, instr)
	}
}

func TestScanInt(t *testing.T) {
	body := []byte("{\n  \"status\": \"ok\",\n  \"value\": -42,\n  \"report\": {\n    \"totals\": {\n      \"instructions\": 1234,\n")
	if v, ok := scanInt(body, `"value": `); !ok || v != -42 {
		t.Errorf("value = %v, %v", v, ok)
	}
	if v, ok := scanInt(body, `"instructions": `); !ok || v != 1234 {
		t.Errorf("instructions = %v, %v", v, ok)
	}
	if _, ok := scanInt(body, `"cycles": `); ok {
		t.Error("found a key that is not there")
	}
}

func TestParseMetricsSkipsLabelsAndComments(t *testing.T) {
	m := parseMetrics([]byte("# TYPE risc1_rcache_hits_total counter\nrisc1_rcache_hits_total 12\nrisc1_http_request_seconds_bucket{le=\"0.1\"} 3\nrisc1_pool_workers 2\n"))
	if len(m) != 2 || m["risc1_rcache_hits_total"] != 12 || m["risc1_pool_workers"] != 2 {
		t.Errorf("parsed %v", m)
	}
	d := delta(counters{"a": 1, "b": 5}, counters{"a": 4, "b": 5, "c": 2})
	if d["a"] != 3 || d["b"] != 0 || d["c"] != 2 {
		t.Errorf("delta %v", d)
	}
}

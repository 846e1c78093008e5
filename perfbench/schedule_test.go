package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	a := poissonSchedule(7, 1000, 2*time.Second)
	b := poissonSchedule(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, 2*time.Second)) {
		t.Fatal("different seeds gave one schedule")
	}
	// 2000 expected arrivals: within five standard deviations.
	if n := float64(len(a)); math.Abs(n-2000) > 5*math.Sqrt(2000) {
		t.Errorf("%v arrivals, want about 2000", n)
	}
	for i, at := range a {
		if at < 0 || at >= 2*time.Second || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %v: not ascending within the span", i, at)
		}
	}
}

func TestHotStreamIsZipfSkewed(t *testing.T) {
	next := hotStream(3)
	corpus := hotCorpus()
	rank := map[string]int{}
	for i, rq := range corpus {
		rank[rq.Name] = i
	}
	count := make([]int, len(corpus))
	for i := 0; i < 20000; i++ {
		count[rank[next().Name]]++
	}
	if count[0] <= count[1] || count[1] <= count[31] || count[31] == 0 {
		t.Errorf("ranks not Zipf-skewed over the whole set: %v", count)
	}
}

// bodies draws n request bodies from a workload's stream.
func bodies(w workload, seed int64, n int) []string {
	next := w.stream(seed)
	w.warmup(next)
	out := make([]string, n)
	for i := range out {
		out[i] = string(next().body)
	}
	return out
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(w, 5, 300), bodies(w, 5, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two request streams", w.name)
		}
		if reflect.DeepEqual(a, bodies(w, 6, 300)) {
			t.Errorf("%s: different seeds gave one request stream", w.name)
		}
	}
}

func TestColdRequestsAreDistinct(t *testing.T) {
	w, _ := workloadByName("cold-unique")
	next := w.stream(1)
	warm := w.warmup(next)
	seen := map[string]bool{}
	for i, rq := range append(warm, take(next, 5000)...) {
		if seen[rq.Source] {
			t.Fatalf("request %d repeats a program", i)
		}
		seen[rq.Source] = true
		if want := machines[i%len(machines)]; rq.Machine != want {
			t.Fatalf("request %d on %s, want %s", i, rq.Machine, want)
		}
	}
}

func TestSimCyclesCoverEveryPairWithUniqueNames(t *testing.T) {
	w, _ := workloadByName("sim-heavy")
	pairs := simPairs()
	next := w.stream(1)
	names := map[string]bool{}
	for cycle := 0; cycle < 3; cycle++ {
		seen := map[string]bool{}
		for i := 0; i < len(pairs); i++ {
			rq := next()
			if names[rq.Name] {
				t.Fatalf("name %s repeated", rq.Name)
			}
			names[rq.Name] = true
			seen[rq.pairKey()] = true
		}
		if len(seen) != len(pairs) {
			t.Errorf("cycle %d covered %d of %d pairs", cycle, len(seen), len(pairs))
		}
	}
}

func TestClusterWarmupReachesEveryReplicaPastTheThreshold(t *testing.T) {
	warm := clusterWarmup(nil)
	count := map[string]int{}
	for i, rq := range warm {
		count[fmt.Sprintf("%s@%d", rq.Name, i%3)]++
	}
	if len(count) != hotCorpusSize*3 {
		t.Fatalf("%d (program, replica) pairs warmed, want %d", len(count), hotCorpusSize*3)
	}
	for k, n := range count {
		if n <= hotThreshold {
			t.Errorf("%s sent %d times, want more than %d", k, n, hotThreshold)
		}
	}
}

// BENCHMARK.json names the workloads this table defines and quotes each
// open-loop rate in its why line.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, got.Name, w.name)
		}
		if rate := fmt.Sprintf("%g req/s", w.rate); !strings.Contains(got.Why, rate) {
			t.Errorf("%s: why line does not quote the open-loop rate %q", w.name, rate)
		}
	}
}

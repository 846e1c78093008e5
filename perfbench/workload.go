package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"risc1/internal/bench"
	"risc1/internal/cc/progen"
	"risc1/internal/loadgen"
)

// machines is the round-robin order of the workloads that span backends.
var machines = []string{"risc1", "cisc", "rv32"}

// request is one generated /v1/run call and the value it must return.
type request struct {
	Machine string
	Name    string
	Source  string
	Want    int32
	body    []byte // the encoded v1 run request
}

// runRequest is the subset of the v1 run-request schema the benchmark
// sends; every other field takes the server default (opt 1, the server's
// fuel and timeout caps).
type runRequest struct {
	Schema  string `json:"schema"`
	Name    string `json:"name"`
	Source  string `json:"source"`
	Machine string `json:"machine"`
}

func newRequest(machine, name, source string, want int32) request {
	body, err := json.Marshal(runRequest{
		Schema: "risc1.run-request/v1", Name: name, Source: source, Machine: machine,
	})
	if err != nil {
		panic(err) // strings always marshal
	}
	return request{Machine: machine, Name: name, Source: source, Want: want, body: body}
}

// pairKey identifies what a run computes: the same (machine, source)
// always executes the same instructions, whatever the request's name.
func (r request) pairKey() string { return r.Machine + "\x00" + r.Source }

// workload is one traffic shape. The seed drives every request the
// server sees; the fixed corpora (hot set, suite scale) are part of the
// workload's definition, so seeds vary the traffic, not what is measured.
type workload struct {
	name     string
	replicas int
	// rate is the open-loop arrival rate in requests per second, about a
	// third of the workload's throughput with nproc clients on a 2-CPU
	// host. It is fixed, not derived per run, so later changes are
	// compared at the same offered load; BENCHMARK.json's why line
	// quotes it.
	rate float64
	// stream returns the request generator for a seed: each call yields
	// the next request. The warm-up takes its requests from the same
	// generator (or ignores it), so measured requests never repeat
	// warm-up ones where a workload requires distinct requests.
	stream func(seed int64) func() request
	// warmup returns the requests that bring the server to the
	// workload's steady state before anything is measured.
	warmup func(next func() request) []request
}

var workloads = []workload{
	{name: "hot-zipf", replicas: 1, rate: 3500, stream: hotStream, warmup: hotWarmup},
	{name: "cold-unique", replicas: 1, rate: 700, stream: coldStream, warmup: coldWarmup},
	{name: "sim-heavy", replicas: 1, rate: 250, stream: simStream, warmup: simWarmup},
	{name: "cluster3-zipf", replicas: 3, rate: 2500, stream: hotStream, warmup: clusterWarmup},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hot set: 32 progen programs on risc1, drawn Zipf(s=1.1).
const (
	hotCorpusSeed = 1
	hotCorpusSize = 32
	hotZipfS      = 1.1
)

func hotCorpus() []request {
	c := loadgen.BuildCorpus(hotCorpusSeed, hotCorpusSize)
	out := make([]request, len(c.Programs))
	for i, p := range c.Programs {
		out[i] = newRequest("risc1", p.Name, p.Source, p.Want)
	}
	return out
}

func hotStream(seed int64) func() request {
	corpus := hotCorpus()
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), hotZipfS, 1, uint64(len(corpus)-1))
	return func() request { return corpus[z.Uint64()] }
}

// hotWarmup sends every hot program once, filling the result cache.
func hotWarmup(func() request) []request { return hotCorpus() }

// hotThreshold is the replica's default hot-key threshold: a peer-homed
// key is replicated at a replica once it has seen that many requests
// for it there.
const hotThreshold = 8

// clusterWarmup sends every hot program hotThreshold+1 times to every
// replica (request i goes to replica i mod 3), which is where hot-key
// replication settles under this traffic: every key cached at its home
// and replicated everywhere else. The relay hop runs during warm-up; the
// measured phases see the ring lookup and the peer cache, and would see
// relays again if replication were removed.
func clusterWarmup(func() request) []request {
	corpus := hotCorpus()
	const replicas = 3
	var out []request
	for rep := 0; rep <= hotThreshold; rep++ {
		for _, rq := range corpus {
			for r := 0; r < replicas; r++ {
				out = append(out, rq)
			}
		}
	}
	return out
}

// coldStream yields distinct progen programs, round-robin over the three
// machines. progen's call-program family has only ~12k variants, so
// repeats are skipped: every request misses every cache.
func coldStream(seed int64) func() request {
	r := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	i := 0
	return func() request {
		for {
			src, want := progen.Program(r)
			if seen[src] {
				continue
			}
			seen[src] = true
			m := machines[i%len(machines)]
			i++
			return newRequest(m, fmt.Sprintf("cold-%d", i), src, want)
		}
	}
}

// coldWarmup warms the runtime and connections, not the caches: its
// programs are as distinct as the measured ones.
func coldWarmup(next func() request) []request {
	out := make([]request, 30)
	for i := range out {
		out[i] = next()
	}
	return out
}

// simParams scales the paper's suite so each run simulates for roughly
// 0.2–4 ms: long enough that simulation dominates in-process service
// time, short enough for thousands of samples per run.
var simParams = bench.Params{
	SieveIters:  1,
	FibN:        14,
	HanoiDiscs:  9,
	AckM:        3,
	AckN:        3,
	QsortSize:   80,
	SearchIters: 2,
	BitIters:    200,
	ListSize:    50,
	MatrixIters: 1,
	MatN:        8,
	PuzzleBoard: 10,
}

// simSkip leaves out the two programs whose smallest scale (one pass)
// still simulates for 10–90 ms: they would make a run's figures a
// measurement of two programs and leave too few samples per run.
var simSkip = map[string]bool{"k-bitmatrix": true, "sieve": true}

// simPairs is every (suite program, machine) pair.
func simPairs() []request {
	var out []request
	for _, w := range bench.Suite(simParams) {
		if simSkip[w.Name] {
			continue
		}
		for _, m := range machines {
			out = append(out, request{Machine: m, Name: w.Name, Source: w.Source, Want: w.Expected})
		}
	}
	return out
}

// simStream walks the pairs in a fresh seeded order each cycle. Every
// request carries a unique name, which is part of the result-cache key
// but not of the program or image key: the result cache always misses
// while compile and image are always hits.
func simStream(seed int64) func() request {
	pairs := simPairs()
	r := rand.New(rand.NewSource(seed))
	var order []int
	i := 0
	return func() request {
		if len(order) == 0 {
			order = r.Perm(len(pairs))
		}
		p := pairs[order[0]]
		order = order[1:]
		i++
		return newRequest(p.Machine, fmt.Sprintf("sim-%d-%d", seed, i), p.Source, p.Want)
	}
}

// simWarmup runs every pair once, filling the program and image caches.
func simWarmup(func() request) []request {
	pairs := simPairs()
	out := make([]request, len(pairs))
	for i, p := range pairs {
		out[i] = newRequest(p.Machine, fmt.Sprintf("warm-%d", i), p.Source, p.Want)
	}
	return out
}

// take draws n requests from a generator.
func take(next func() request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

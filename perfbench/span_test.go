package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// A request's tree: serve.request [0,100] calls cc.parse [10,40] and
// machine.risc1.run [50,90], which calls mem.restore [60,70].
func tree(req int) []span {
	return []span{
		{Name: "serve.request", Req: req, Parent: -1, Start: 0, End: 100},
		{Name: "cc.parse", Req: req, Parent: 0, Start: 10, End: 40},
		{Name: "machine.risc1.run", Req: req, Parent: 0, Start: 50, End: 90},
		{Name: "mem.restore", Req: req, Parent: 2, Start: 60, End: 70},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(tree(0))
	if want := []int64{30, 30, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	spans := tree(0)
	// Work outside any request (the dispatch probe) is not in-process
	// request time.
	spans = append(spans, span{Name: "exec.noop", Req: -1, Parent: -1, Start: 200, End: 900})
	got := layerShares(spans)
	want := map[string]float64{"serve": 0.3, "cc": 0.3, "machine": 0.3, "mem": 0.1}
	total := 0.0
	for l, v := range got {
		total += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("share %s = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(total-1) > 1e-12 || len(got) != len(want) {
		t.Errorf("shares %v do not partition the request time", got)
	}
}

func TestPerRequestSumsRepeatedCalls(t *testing.T) {
	spans := []span{
		{Name: "cc.opt.prop", Req: 0, Parent: -1, Start: 0, End: 5},
		{Name: "cc.opt.prop", Req: 0, Parent: -1, Start: 10, End: 12}, // second round
		{Name: "cc.opt.prop", Req: 1, Parent: -1, Start: 20, End: 29},
	}
	if got := perRequest(spans)["cc.opt.prop"]; !reflect.DeepEqual(got, []float64{7, 9}) {
		t.Errorf("per-request sums %v, want [7 9]", got)
	}
}

func TestReindexKeepsTheTreeOfLaterRequests(t *testing.T) {
	spans := append(tree(0), tree(1)...)
	for i := 4; i < 8; i++ {
		if spans[i].Parent >= 0 {
			spans[i].Parent += 4
		}
	}
	got := reindex(spans, 1)
	if !reflect.DeepEqual(got, tree(1)) {
		t.Errorf("reindexed %v, want %v", got, tree(1))
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("rcache.key", 0, -1)
	tr.end(id)
	tr.add("exec.queue", 0, -1, tr.epoch, tr.epoch)
	if id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(tr.spans))
	}
}

func TestChromeTraceIsLoadableJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tree(3)); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Ph != "X" || (i > 0 && e.Ts < events[i-1].Ts) {
			t.Errorf("event %d: phase %q at %v", i, e.Ph, e.Ts)
		}
	}
	if events[3].Name != "mem.restore" || events[3].Dur != 0.01 || events[3].Cat != "mem" {
		t.Errorf("last event %+v", events[3])
	}
}

// The traced replay serves a request with the value the reference
// computed and times every layer it passes through.
func TestReplaySpansCoverTheMissPath(t *testing.T) {
	w, _ := workloadByName("cold-unique")
	rq := w.stream(1)()
	tr := newTracer(true)
	e := newEngine(tr)
	defer e.close()
	s, err := e.serve(context.Background(), 0, rq.body)
	if err != nil {
		t.Fatal(err)
	}
	if s.value != rq.Want || s.instructions == 0 {
		t.Fatalf("replayed value %d (%d instructions), want %d", s.value, s.instructions, rq.Want)
	}
	names := map[string]bool{}
	for _, sp := range tr.spans {
		names[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	for _, n := range []string{"serve.decode", "rcache.key", "rcache.do", "exec.queue", "exec.job",
		"cc.parse", "cc.lower", "cc.opt.prop", "cc.codegen." + rq.Machine, "asm." + rq.Machine,
		"mem.snapshot", "mem.restore", "machine." + rq.Machine + ".run", "obs.build_report", "obs.report_json"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
	shares := layerShares(tr.spans)
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("layer shares sum to %v", total)
	}
	// A repeat is a level-2 hit with the same bytes: no compile, no
	// simulation.
	before := len(tr.spans)
	s2, err := e.serve(context.Background(), 1, rq.body)
	if err != nil || !bytes.Equal(s2.body, s.body) {
		t.Fatalf("repeat: err %v, same bytes %v", err, bytes.Equal(s2.body, s.body))
	}
	if hits := durations(tr.spans[before:], "rcache.do", "hit"); len(hits) != 1 {
		t.Errorf("repeat made %d rcache hits, want 1", len(hits))
	}
	for _, sp := range tr.spans[before:] {
		if sp.layer() == "cc" || sp.layer() == "machine" {
			t.Errorf("hit path ran %s", sp.Name)
		}
	}
}

// The untraced engine serves concurrently: counts from two workers equal
// the traced replay's, request by request.
func TestReplayCountsConcurrentlyMatchTheTracedReplay(t *testing.T) {
	w, _ := workloadByName("cold-unique")
	reqs := take(w.stream(2), 24)
	counts, err := replayCounts(2, reqs)
	if err != nil {
		t.Fatal(err)
	}
	run, err := replay(newTracer(true), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rq := range reqs {
		if got, want := counts[rq.pairKey()], run.served[i].instructions; got != want || got == 0 {
			t.Errorf("request %d: %d instructions concurrently, %d traced", i, got, want)
		}
	}
}

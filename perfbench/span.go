package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer during the traced replay: the
// call's name ("<layer>.<what>"), its interval, the span it was called
// from, and the id of the request it served, shared by every span of
// that request.
type span struct {
	Name   string
	Arg    string // optional detail, e.g. a cache outcome
	Req    int    // request id; -1 for work outside any request
	Parent int    // index of the enclosing span, -1 for a root
	Start  int64  // ns since the tracer's epoch
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name up to its first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory. A disabled tracer records nothing, so
// the replay can run with and without spans through the same code. It
// is not safe for concurrent use: the traced replay is serial (a pool
// job runs while its submitter waits, so the two never record at once).
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = t.now()
	}
}

// endArg closes a span and records its detail.
func (t *tracer) endArg(id int, arg string) {
	if id >= 0 {
		t.spans[id].End = t.now()
		t.spans[id].Arg = arg
	}
}

// add records an already measured interval as a span.
func (t *tracer) add(name string, req, parent int, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// selfTimes returns each span's own time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerShares sums self time by layer over the spans that belong to a
// request and divides by the requests' root time (the in-process time),
// so the shares of all layers add up to 1.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string]int64{}
	var total int64
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		by[s.layer()] += self[i]
		if s.Parent < 0 {
			total += s.dur()
		}
	}
	out := make(map[string]float64, len(by))
	for l, v := range by {
		if total > 0 {
			out[l] = float64(v) / float64(total)
		}
	}
	return out
}

// perRequest sums, for every request, the duration of the spans with
// each name, and returns the per-name lists of those sums (one entry per
// request that made the call). A request that compiled once in seven
// optimisation rounds contributes one sample for "cc.opt.prop": the
// total it spent there.
func perRequest(spans []span) map[string][]float64 {
	type key struct {
		name string
		req  int
	}
	sums := map[key]int64{}
	var order []key
	for _, s := range spans {
		k := key{s.Name, s.Req}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += s.dur()
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], float64(sums[k]))
	}
	return out
}

// traceEvent is one Chrome trace_event "complete" event; Perfetto and
// chrome://tracing load an array of them.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace_event JSON, ordered
// by start time. Each request is one track (tid), so nesting shows as
// stacking; span and parent indices ride in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	events := make([]traceEvent, 0, len(spans))
	for _, i := range idx {
		s := spans[i]
		args := map[string]any{"span": i, "parent": s.Parent, "request": s.Req}
		if s.Arg != "" {
			args["detail"] = s.Arg
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Req + 2, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(events)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"risc1/internal/cc"
	"risc1/internal/cpu"
	"risc1/internal/exec"
	"risc1/internal/obs"
	"risc1/internal/session"
)

// sessionsSrc is structurally rich (recursion -> calls, returns, and
// deep enough window spills) and tiny enough to step exhaustively.
const sessionsSrc = `
int result;
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { result = fib(8); return 0; }
`

// doSession performs one session API call and decodes the envelope.
func doSession(t *testing.T, method, url, body string) (*http.Response, *sessionResponse) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr sessionResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("unmarshal %s %s response: %v\n%s", method, url, err, b)
	}
	if sr.Schema != SessionResponseSchemaV1 {
		t.Errorf("%s %s: schema %q, want %q", method, url, sr.Schema, SessionResponseSchemaV1)
	}
	return resp, &sr
}

// createSession builds a session and returns its id.
func createSession(t *testing.T, ts *httptest.Server, req sessionRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, sr := doSession(t, "POST", ts.URL+"/v1/sessions", string(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201: %+v", resp.StatusCode, sr.Error)
	}
	if sr.ID == "" || sr.State == nil || sr.State.Halted {
		t.Fatalf("created session %+v, want a paused machine with an id", sr)
	}
	return sr.ID
}

// command drives one session command, asserting success.
func command(t *testing.T, ts *httptest.Server, id string, req commandRequest) *sessionResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, sr := doSession(t, "POST", ts.URL+"/v1/sessions/"+id, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cmd %q status = %d: %+v", req.Cmd, resp.StatusCode, sr.Error)
	}
	return sr
}

// sseMessage is one parsed server-sent event.
type sseMessage struct {
	event string
	id    string
	data  string
}

// parseSSE splits an event-stream body into messages. It only uses
// Errorf so it is safe to call from a reader goroutine.
func parseSSE(t *testing.T, r io.Reader) []sseMessage {
	var msgs []sseMessage
	var cur sseMessage
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				msgs = append(msgs, cur)
			}
			cur = sseMessage{}
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil {
		t.Errorf("reading SSE stream: %v", err)
	}
	return msgs
}

// TestSessionLifecycle drives the whole debugger surface over HTTP:
// create paused, breakpoint by symbol, run to it, inspect registers and
// memory, step, finish, and close.
func TestSessionLifecycle(t *testing.T) {
	ts, srv, _ := newTestServer(t, ServerConfig{})
	id := createSession(t, ts, sessionRequest{Source: sessionsSrc})

	command(t, ts, id, commandRequest{Cmd: "add-breakpoint", Addr: "fib"})
	sr := command(t, ts, id, commandRequest{Cmd: "run"})
	if sr.State.Stopped != session.StopBreakpoint || sr.State.Halted {
		t.Fatalf("run state %+v, want a breakpoint pause", sr.State)
	}
	if len(sr.Breakpoints) != 0 {
		t.Errorf("run response carries breakpoints: %v", sr.Breakpoints)
	}
	if bp := command(t, ts, id, commandRequest{Cmd: "breakpoints"}); len(bp.Breakpoints) != 1 {
		t.Errorf("breakpoints = %v, want one", bp.Breakpoints)
	}
	if sr := command(t, ts, id, commandRequest{Cmd: "read-registers"}); len(sr.Registers) != 32 {
		t.Errorf("RISC register read returned %d values, want 32", len(sr.Registers))
	}

	step := command(t, ts, id, commandRequest{Cmd: "step", Steps: 3})
	if step.State.Stopped != session.StopStep || step.State.Steps != 3 {
		t.Fatalf("step state %+v, want 3 stepped instructions", step.State)
	}

	command(t, ts, id, commandRequest{Cmd: "clear-breakpoint", Addr: "fib"})
	fin := command(t, ts, id, commandRequest{Cmd: "run"})
	if fin.State.Stopped != session.StopHalt || !fin.State.Halted {
		t.Fatalf("final run %+v, want a clean halt", fin.State)
	}

	mem := command(t, ts, id, commandRequest{Cmd: "read-memory", Addr: "result", Count: 4})
	if mem.Memory != "00000015" { // fib(8) = 21, big-endian word
		t.Errorf("result word = %q, want 00000015", mem.Memory)
	}

	// The inspection snapshot agrees.
	resp, got := doSession(t, "GET", ts.URL+"/v1/sessions/"+id, "")
	if resp.StatusCode != http.StatusOK || !got.State.Halted || got.Stream == nil {
		t.Fatalf("GET session = %d %+v", resp.StatusCode, got)
	}
	if got.Stream.Events == 0 {
		t.Error("session stream saw no events despite a full run")
	}

	resp, del := doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, "")
	if resp.StatusCode != http.StatusOK || del.Status != "closed" {
		t.Fatalf("DELETE = %d %+v", resp.StatusCode, del)
	}
	if resp, _ := doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE status = %d, want 404", resp.StatusCode)
	}
	body, _ := json.Marshal(commandRequest{Cmd: "step"})
	resp, sr = doSession(t, "POST", ts.URL+"/v1/sessions/"+id, string(body))
	if resp.StatusCode != http.StatusNotFound || sr.Error.Code != codeSessionNotFound {
		t.Errorf("command on a closed session = %d %+v, want 404 session_not_found", resp.StatusCode, sr.Error)
	}

	if st := srv.SessionStats(); st.Created != 1 || st.Closed != 1 || st.Active != 0 {
		t.Errorf("session stats %+v, want one created and closed", st)
	}
}

// TestSessionValidation covers the rejection paths and their stable codes.
// TestSessionEveryMachine drives a session to completion on every
// registered machine: the debugger surface is machine-agnostic, and the
// result global reads back the same bytes on each.
func TestSessionEveryMachine(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	for _, mach := range []string{"risc1", "cisc", "rv32"} {
		id := createSession(t, ts, sessionRequest{Source: sessionsSrc, Machine: mach})
		sr := command(t, ts, id, commandRequest{Cmd: "run"})
		if sr.State == nil || !sr.State.Halted || sr.State.Stopped != "halt" {
			t.Fatalf("%s: run state = %+v, want a clean halt", mach, sr.State)
		}
		sr = command(t, ts, id, commandRequest{Cmd: "read-memory", Addr: "result"})
		if sr.Memory != "00000015" {
			t.Errorf("%s: result = %q, want 00000015 (fib(8) = 21)", mach, sr.Memory)
		}
		doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, "")
	}
}

func TestSessionValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	cases := []struct {
		name, method, url, body string
		status                  int
		code                    string
	}{
		{"missing source", "POST", "/v1/sessions", `{}`, 400, "bad_request"},
		{"bad machine", "POST", "/v1/sessions", `{"source": "int main() { return 0; }", "machine": "pdp11"}`, 422, "unsupported_machine"},
		{"bad opt", "POST", "/v1/sessions", `{"source": "int main() { return 0; }", "opt": 7}`, 400, "bad_request"},
		{"unknown schema", "POST", "/v1/sessions", `{"schema": "risc1.session-request/v9", "source": "int main() { return 0; }"}`, 422, "unsupported_schema"},
		{"compile error", "POST", "/v1/sessions", `{"source": "int main() { return undeclared; }"}`, 400, "compile_error"},
		{"unknown session", "POST", "/v1/sessions/sess-999999", `{"cmd": "step"}`, 404, "session_not_found"},
		{"unknown session get", "GET", "/v1/sessions/sess-999999", "", 404, "session_not_found"},
		{"unknown session stream", "GET", "/v1/sessions/sess-999999/events", "", 404, "session_not_found"},
	}
	for _, tc := range cases {
		resp, sr := doSession(t, tc.method, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if sr.Error == nil || sr.Error.Code != tc.code {
			t.Errorf("%s: error = %+v, want code %q", tc.name, sr.Error, tc.code)
		}
	}

	// Command-level rejections on a live session.
	id := createSession(t, ts, sessionRequest{Source: sessionsSrc})
	for _, tc := range []struct {
		name, body string
		code       string
	}{
		{"unknown cmd", `{"cmd": "teleport"}`, "bad_request"},
		{"bad addr", `{"cmd": "add-breakpoint", "addr": "no_such_symbol"}`, "bad_request"},
		{"missing addr", `{"cmd": "read-memory"}`, "bad_request"},
		{"oversized read", `{"cmd": "read-memory", "addr": "result", "count": 65536}`, "bad_request"},
		{"unknown cmd schema", `{"schema": "risc1.session-command/v9", "cmd": "step"}`, "unsupported_schema"},
	} {
		_, sr := doSession(t, "POST", ts.URL+"/v1/sessions/"+id, tc.body)
		if sr.Error == nil || sr.Error.Code != tc.code {
			t.Errorf("%s: error = %+v, want code %q", tc.name, sr.Error, tc.code)
		}
	}
	// A numeric addr literal is accepted.
	fibAddr := command(t, ts, id, commandRequest{Cmd: "add-breakpoint", Addr: "fib"}).Breakpoints[0]
	command(t, ts, id, commandRequest{Cmd: "clear-breakpoint", Addr: fibAddr})
	if bp := command(t, ts, id, commandRequest{Cmd: "breakpoints"}); len(bp.Breakpoints) != 0 {
		t.Errorf("hex-literal clear left breakpoints: %v", bp.Breakpoints)
	}
}

// TestSessionBusy: while a long run command executes, every other
// command answers 409 session_busy immediately, and closing the session
// interrupts the run.
func TestSessionBusy(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	id := createSession(t, ts, sessionRequest{Source: spinSrc, Fuel: 1 << 40})

	// Commands take the session lock without queueing, so the probe
	// steps below can hold it at the instant the run arrives; the run is
	// then itself refused 409 session_busy and must be re-issued until
	// it holds the lock, or no probe would ever see it busy.
	runStatus := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(commandRequest{Cmd: "run"})
		for {
			resp, err := http.Post(ts.URL+"/v1/sessions/"+id, "application/json", strings.NewReader(string(body)))
			if err != nil {
				runStatus <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				runStatus <- resp.StatusCode
				return
			}
		}
	}()

	// Wait for the run to hold the command lock.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(commandRequest{Cmd: "step"})
		resp, sr := doSession(t, "POST", ts.URL+"/v1/sessions/"+id, string(body))
		if resp.StatusCode == http.StatusConflict {
			if sr.Error.Code != codeSessionBusy {
				t.Fatalf("busy code = %q, want %q", sr.Error.Code, codeSessionBusy)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never became busy")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// DELETE interrupts the in-flight run; the run command reports the
	// session gone.
	if resp, _ := doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of a busy session = %d", resp.StatusCode)
	}
	select {
	case st := <-runStatus:
		if st != http.StatusNotFound {
			t.Errorf("interrupted run status = %d, want 404 (session closed under it)", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted run never returned")
	}
}

// TestSessionsCountAgainstInflight: a live session owns an admission
// slot, so with -inflight 1 a run request is turned away until the
// session closes — sessions and runs share one capacity pool.
func TestSessionsCountAgainstInflight(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{MaxInflight: 1, MaxQueue: -1})
	id := createSession(t, ts, sessionRequest{Source: sessionsSrc})

	body, _ := json.Marshal(runRequest{Source: sessionsSrc})
	resp, b := postRun(t, ts, string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run beside a session = %d, want 429\n%s", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "queue_full" {
		t.Errorf("code = %q, want queue_full", code)
	}
	// A second session is refused the same way.
	sreq, _ := json.Marshal(sessionRequest{Source: sessionsSrc})
	sresp, sr := doSession(t, "POST", ts.URL+"/v1/sessions", string(sreq))
	if sresp.StatusCode != http.StatusTooManyRequests || sr.Error.Code != codeQueueFull {
		t.Errorf("second session = %d %+v, want 429 queue_full", sresp.StatusCode, sr.Error)
	}

	doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, "")
	if resp, _ := postRun(t, ts, string(body)); resp.StatusCode != http.StatusOK {
		t.Errorf("run after session close = %d, want 200 (slot released)", resp.StatusCode)
	}
}

// TestSessionSSEDifferential is the acceptance differential end to end
// over the API: a session stepped instruction by instruction, observed
// through the SSE stream, must produce byte-for-byte the same JSON
// event lines as a post-hoc traced run of the same program through the
// JSONL sink (the risc1-run -trace-out path).
func TestSessionSSEDifferential(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	id := createSession(t, ts, sessionRequest{Source: sessionsSrc})

	// Attach the stream with a ring big enough to never drop.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?ring=65536")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	type streamResult struct {
		msgs []sseMessage
	}
	stream := make(chan streamResult, 1)
	go func() {
		stream <- streamResult{parseSSE(t, resp.Body)}
	}()

	// Step in mixed strides so chunk boundaries land arbitrarily.
	strides := []uint64{1, 3, 1, 7, 64, 1}
	for i := 0; ; i++ {
		sr := command(t, ts, id, commandRequest{Cmd: "step", Steps: strides[i%len(strides)]})
		if sr.State.Halted {
			if sr.State.Fault != "" {
				t.Fatalf("session faulted: %s", sr.State.Fault)
			}
			break
		}
	}
	doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, "")

	var got streamResult
	select {
	case got = <-stream:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream never ended")
	}
	msgs := got.msgs
	if len(msgs) < 3 || msgs[0].event != "open" {
		t.Fatalf("stream shape wrong: %d messages, first %+v", len(msgs), msgs[0])
	}
	last := msgs[len(msgs)-1]
	if last.event != "end" || !strings.Contains(last.data, session.CloseReasonClient) {
		t.Fatalf("terminal message = %+v, want end with reason %q", last, session.CloseReasonClient)
	}
	var streamed []string
	for _, m := range msgs[1 : len(msgs)-1] {
		if m.event == "drops" {
			t.Fatalf("lossless ring dropped events: %+v", m)
		}
		if m.event != "trace" {
			t.Fatalf("unexpected stream message %+v", m)
		}
		streamed = append(streamed, m.data)
	}

	// Reference: the same program traced post-hoc through the JSONL sink.
	prog, _, _, err := cc.CompileRISC(sessionsSrc, cc.Options{Opt: 1, DelaySlots: true})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.Config{})
	c.Reset(prog.Entry)
	if err := prog.LoadInto(c.Mem); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	c.Obs = &obs.Observer{Tracer: obs.NewTracer(0, sink)}
	if err := c.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	sink.Close()
	reference := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	if len(streamed) != len(reference) {
		t.Fatalf("streamed %d events, post-hoc trace has %d", len(streamed), len(reference))
	}
	for i := range reference {
		if streamed[i] != reference[i] {
			t.Fatalf("event %d differs\n  streamed: %s\n  posthoc:  %s", i, streamed[i], reference[i])
		}
	}
}

// TestSessionStalledSSEClient is satellite coverage for the slow-
// subscriber path over real HTTP: a client that attaches a tiny ring
// and refuses to read must not slow the simulator (the run command
// still burns its whole fuel budget promptly), and when the stream is
// finally drained it shows monotonically increasing drop counts whose
// total exactly matches the sequence-number gaps.
func TestSessionStalledSSEClient(t *testing.T) {
	const fuel = 50000
	ts, _, _ := newTestServer(t, ServerConfig{})
	id := createSession(t, ts, sessionRequest{Source: spinSrc, Fuel: fuel})

	// Attach with a tiny ring and stall: no reads until the run is over.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?ring=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The simulator must reach fuel exhaustion without waiting for the
	// stalled client (the generous deadline is CI headroom, not budget —
	// the session-layer A/B benchmark pins the <=5% overhead bound).
	runDone := make(chan sessionResponse, 1)
	go func() {
		body, _ := json.Marshal(commandRequest{Cmd: "run"})
		post, err := http.Post(ts.URL+"/v1/sessions/"+id, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			runDone <- sessionResponse{}
			return
		}
		defer post.Body.Close()
		var sr sessionResponse
		if err := json.NewDecoder(post.Body).Decode(&sr); err != nil {
			t.Errorf("decoding run response: %v", err)
		}
		runDone <- sr
	}()
	select {
	case sr := <-runDone:
		if sr.State == nil || sr.State.Stopped != session.StopFuel || sr.State.Instructions != fuel {
			t.Fatalf("run response %+v, want fuel exhaustion at %d", sr, fuel)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run stalled behind a non-reading SSE client")
	}

	// Total events offered, from the inspection snapshot.
	_, snap := doSession(t, "GET", ts.URL+"/v1/sessions/"+id, "")
	total := snap.Stream.Events
	if total < fuel {
		t.Fatalf("stream saw %d events for %d instructions", total, fuel)
	}
	doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, "")

	// Now drain the whole stream and audit it.
	msgs := parseSSE(t, resp.Body)
	if len(msgs) < 2 || msgs[0].event != "open" || msgs[len(msgs)-1].event != "end" {
		t.Fatalf("stream shape wrong: %d messages", len(msgs))
	}
	var (
		delivered  uint64
		lastSeq    int64 = -1
		gaps       uint64
		lastDrops  uint64
		dropsSeen  int
		sawDropped bool
	)
	for _, m := range msgs[1 : len(msgs)-1] {
		switch m.event {
		case "drops":
			var d struct {
				Dropped uint64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(m.data), &d); err != nil {
				t.Fatalf("drops payload %q: %v", m.data, err)
			}
			if d.Dropped <= lastDrops {
				t.Fatalf("drop counter not monotone: %d after %d", d.Dropped, lastDrops)
			}
			lastDrops = d.Dropped
			dropsSeen++
			sawDropped = true
		case "trace":
			seq, err := strconv.ParseInt(m.id, 10, 64)
			if err != nil {
				t.Fatalf("trace id %q: %v", m.id, err)
			}
			if seq <= lastSeq {
				t.Fatalf("sequence not increasing: %d after %d", seq, lastSeq)
			}
			gaps += uint64(seq - lastSeq - 1)
			lastSeq = seq
			delivered++
		default:
			t.Fatalf("unexpected stream message %+v", m)
		}
	}
	if !sawDropped {
		t.Fatal("a stalled 8-slot ring under 50000 events never reported drops")
	}
	// Gap-exactness: every event is either delivered or accounted for in
	// the cumulative drop counter, and the counter equals the seq gaps.
	if gaps != lastDrops {
		t.Errorf("sequence gaps total %d, drop counter says %d", gaps, lastDrops)
	}
	if delivered+lastDrops != total {
		t.Errorf("delivered %d + dropped %d != emitted %d", delivered, lastDrops, total)
	}
	if uint64(lastSeq) != total-1 {
		t.Errorf("freshest delivered seq %d, want %d (drop-oldest keeps the live edge)", lastSeq, total-1)
	}
	t.Logf("delivered %d, dropped %d (%d drop reports) of %d events", delivered, lastDrops, dropsSeen, total)
}

// TestServeDrainClosesOpenStream is the drain bugfix pin: a SIGTERM-
// style drain must end open SSE streams with a terminal "drain" event
// and release the sessions' admission slots BEFORE the pool drain
// fallback fires — and the whole teardown leaks no goroutines.
func TestServeDrainClosesOpenStream(t *testing.T) {
	before := runtime.NumGoroutine()

	pool := exec.NewPool(exec.Config{Workers: 2})
	srv := NewServer(pool, ServerConfig{MaxInflight: 2})
	ts := httptest.NewServer(srv.Handler())

	id := createSession(t, ts, sessionRequest{Source: sessionsSrc})

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type result struct{ msgs []sseMessage }
	stream := make(chan result, 1)
	go func() { stream <- result{parseSSE(t, resp.Body)} }()
	command(t, ts, id, commandRequest{Cmd: "step", Steps: 25})

	// The drain sequence main runs on SIGTERM: sessions first, then the
	// listener, then the pool.
	start := time.Now()
	srv.DrainSessions()
	select {
	case got := <-stream:
		last := got.msgs[len(got.msgs)-1]
		if last.event != "end" || !strings.Contains(last.data, session.CloseReasonDrain) {
			t.Fatalf("terminal message = %+v, want end with reason %q", last, session.CloseReasonDrain)
		}
		// The 25 stepped instructions were delivered before the terminal
		// event — close drains buffers, it does not drop them.
		traces := 0
		for _, m := range got.msgs {
			if m.event == "trace" {
				traces++
			}
		}
		if traces < 25 {
			t.Errorf("stream delivered %d trace events before end, want >= 25", traces)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("open SSE stream did not end on drain")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("session drain took %v; it must beat the drain-timeout fallback", took)
	}
	if st := srv.LimiterStats(); st.Inflight != 0 {
		t.Errorf("drained sessions still hold %d admission slots", st.Inflight)
	}
	if st := srv.SessionStats(); st.Active != 0 || st.Closed != 1 {
		t.Errorf("session stats after drain: %+v", st)
	}

	ts.Close()
	if !drainPool(pool, 5*time.Second, t.Logf) {
		t.Error("pool drain was not clean after sessions closed")
	}

	// Nothing outlives the teardown: not the reaper, not the stream
	// handler, not the pool.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after drain = %d, before = %d: drain leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionIdleReapedOverHTTP: an untouched session expires on the
// server's idle timeout; its stream ends with the idle-timeout reason
// and its admission slot comes back.
func TestSessionIdleReapedOverHTTP(t *testing.T) {
	ts, srv, _ := newTestServer(t, ServerConfig{MaxInflight: 1, SessionIdle: 80 * time.Millisecond})
	id := createSession(t, ts, sessionRequest{Source: sessionsSrc})

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msgs := parseSSE(t, resp.Body) // returns when the reaper closes the session
	last := msgs[len(msgs)-1]
	if last.event != "end" || !strings.Contains(last.data, session.CloseReasonIdle) {
		t.Fatalf("terminal message = %+v, want end with reason %q", last, session.CloseReasonIdle)
	}
	if st := srv.SessionStats(); st.Expired != 1 {
		t.Errorf("expired sessions = %d, want 1", st.Expired)
	}
	if st := srv.LimiterStats(); st.Inflight != 0 {
		t.Errorf("expired session still holds %d admission slots", st.Inflight)
	}
}

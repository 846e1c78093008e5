package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"risc1/internal/exec"
)

var updateGolden = flag.Bool("update", false, "rewrite the serve golden files")

const serveSrc = `
int result;
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { result = fib(10); return 0; }
`

const spinSrc = `int result; int main() { while (1) { result = result + 1; } return 0; }`

// newTestServer builds a server on a small pool, returning the HTTP
// test server plus the Server and pool for counter assertions.
func newTestServer(t *testing.T, cfg ServerConfig) (*httptest.Server, *Server, *exec.Pool) {
	t.Helper()
	pool := exec.NewPool(exec.Config{Workers: 2})
	srv := NewServer(pool, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.DrainSessions() // closes live sessions and stops the idle reaper
		ts.Close()
		pool.Close()
	})
	return ts, srv, pool
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// checkGolden compares a response body against its pinned file — the
// same -update convention as the bench report golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response diverged from %s; if the contract deliberately "+
			"changed, mint a new schema version and rerun with -update.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// errorCode decodes the unified error envelope.
func errorCode(t *testing.T, b []byte) string {
	t.Helper()
	var r runResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if r.Error == nil {
		t.Fatalf("response has no error envelope:\n%s", b)
	}
	if r.Schema != ResponseSchemaV1 {
		t.Errorf("error response schema = %q, want %q", r.Schema, ResponseSchemaV1)
	}
	return r.Error.Code
}

// TestRunGolden pins the successful-run response: 200, value 55, a full
// run report with the batch-engine accounting folded in, no job id
// (sync responses are content-addressed, not request-addressed), and a
// cache-miss header on a fresh server.
func TestRunGolden(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	body, _ := json.Marshal(runRequest{Name: "fib", Source: serveSrc})
	resp, b := postRun(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, b)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("%s = %q, want miss on a fresh server", CacheHeader, got)
	}
	checkGolden(t, "run_ok.json", b)
}

// TestRunFuelGolden pins the fuel-exhausted envelope: 422 with the
// stable code fuel_exceeded.
func TestRunFuelGolden(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	body, _ := json.Marshal(runRequest{Name: "starved", Source: serveSrc, Fuel: 50})
	resp, b := postRun(t, ts, string(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422\n%s", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "fuel_exceeded" {
		t.Errorf("code = %q, want fuel_exceeded", code)
	}
	checkGolden(t, "run_fuel.json", b)
}

// TestRunOversizedGolden pins the 413 envelope: a body past -max-source
// is refused with body_too_large before it is read in full.
func TestRunOversizedGolden(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{MaxSource: 256})
	big := fmt.Sprintf(`{"source": %q}`, strings.Repeat("int x; ", 200))
	resp, b := postRun(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413\n%s", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "body_too_large" {
		t.Errorf("code = %q, want body_too_large", code)
	}
	checkGolden(t, "run_oversized.json", b)
}

// TestRunDeadlineGolden pins the 504 envelope: an infinite guest loop
// is stopped by the wall-clock cap, with a fixed message so the golden
// is stable.
func TestRunDeadlineGolden(t *testing.T) {
	ts, srv, _ := newTestServer(t, ServerConfig{MaxTimeout: 50 * time.Millisecond})
	body, _ := json.Marshal(runRequest{Name: "spin", Source: spinSrc})
	resp, b := postRun(t, ts, string(body))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504\n%s", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "deadline" {
		t.Errorf("code = %q, want deadline", code)
	}
	checkGolden(t, "run_deadline.json", b)
	// Deadline expiry depends on scheduling, so it must never be cached.
	if s := srv.CacheStats(); s.Entries != 0 {
		t.Errorf("deadline result was stored (%d entries)", s.Entries)
	}
}

// TestRunQueueFullGolden pins the 429 envelope and Retry-After header:
// with one execution slot held by an async spin and no wait queue, the
// next request is turned away immediately.
func TestRunQueueFullGolden(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{
		MaxTimeout:  500 * time.Millisecond,
		MaxInflight: 1,
		MaxQueue:    -1,
	})
	spin, _ := json.Marshal(runRequest{Name: "spin", Source: spinSrc, Async: true})
	resp, b := postRun(t, ts, string(spin))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async spin status = %d, want 202\n%s", resp.StatusCode, b)
	}

	body, _ := json.Marshal(runRequest{Name: "fib", Source: serveSrc})
	resp, b = postRun(t, ts, string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	if code := errorCode(t, b); code != "queue_full" {
		t.Errorf("code = %q, want queue_full", code)
	}
	checkGolden(t, "run_queue_full.json", b)
}

// TestRunCompileError checks the 400 envelope without a golden:
// compiler message wording is not part of the serve contract, the code
// is.
func TestRunCompileError(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	resp, b := postRun(t, ts, `{"source": "int main() { return undeclared; }"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, b)
	}
	if code := errorCode(t, b); code != "compile_error" {
		t.Errorf("code = %q, want compile_error", code)
	}
}

// TestRunOversizedImage: a tiny request whose program image would not
// fit the machine memory is a 400 compile_error, rejected before the
// assembler allocates the image.
func TestRunOversizedImage(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	for _, m := range []string{"risc1", "cisc", "rv32"} {
		body := `{"machine": "` + m + `", "source": "int result; int a[100000000]; int main() { result = 7; return 0; }"}`
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, b := postRun(t, ts, body)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400\n%s", m, resp.StatusCode, b)
		}
		if code := errorCode(t, b); code != "compile_error" {
			t.Errorf("%s: code = %q, want compile_error", m, code)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: request allocated %d bytes, want under 8 MiB", m, grew)
		}
	}
}

// TestRunBadRequests covers the validation rejections and their stable
// codes.
func TestRunBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"invalid json", `{"source": `, 400, "bad_request"},
		{"missing source", `{}`, 400, "bad_request"},
		{"bad machine", `{"source": "int main() { return 0; }", "machine": "pdp11"}`, 422, "unsupported_machine"},
		{"bad opt", `{"source": "int main() { return 0; }", "opt": 3}`, 400, "bad_request"},
		{"unknown schema", `{"schema": "risc1.run-request/v9", "source": "int main() { return 0; }"}`, 422, "unsupported_schema"},
	}
	for _, tc := range cases {
		resp, b := postRun(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d\n%s", tc.name, resp.StatusCode, tc.status, b)
		}
		if code := errorCode(t, b); code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, code, tc.code)
		}
	}
}

// TestMachinesEndpoint: GET /v1/machines lists every registered backend
// with the default flagged, and an alias from the listing routes a run
// to the same content-addressed result as the canonical name.
func TestMachinesEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr machinesResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Schema != MachinesResponseSchemaV1 {
		t.Errorf("schema = %q, want %q", mr.Schema, MachinesResponseSchemaV1)
	}
	byName := map[string]machineInfo{}
	for _, m := range mr.Machines {
		byName[m.Name] = m
	}
	for _, want := range []string{"risc1", "cisc", "rv32"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("listing is missing machine %q: %+v", want, mr.Machines)
		}
	}
	if !byName["risc1"].Default {
		t.Errorf("risc1 not flagged as the default: %+v", byName["risc1"])
	}

	// Every advertised alias must be accepted by /v1/run and address the
	// same cache entry as the canonical name.
	for _, m := range mr.Machines {
		canon, _ := json.Marshal(runRequest{Name: "alias", Source: serveSrc, Machine: m.Name})
		first, firstBody := postRun(t, ts, string(canon))
		if first.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d\n%s", m.Name, first.StatusCode, firstBody)
		}
		for _, alias := range m.Aliases {
			req, _ := json.Marshal(runRequest{Name: "alias", Source: serveSrc, Machine: alias})
			resp, body := postRun(t, ts, string(req))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status = %d\n%s", alias, resp.StatusCode, body)
			}
			if got := resp.Header.Get(CacheHeader); got != "hit" {
				t.Errorf("%s: %s = %q, want hit (alias must share the canonical cache entry)",
					alias, CacheHeader, got)
			}
			if !bytes.Equal(body, firstBody) {
				t.Errorf("%s: response diverged from canonical %s:\n%s\n---\n%s",
					alias, m.Name, body, firstBody)
			}
		}
	}
}

// TestSchemaRoundTrip: an explicit v1 request schema is accepted and
// the response echoes the response schema — byte-identical to the same
// request without the field (absent means v1).
func TestSchemaRoundTrip(t *testing.T) {
	src := `int result; int main() { result = 6 * 7; return 0; }`
	explicit, _ := json.Marshal(runRequest{Schema: RequestSchemaV1, Source: src})
	implicit, _ := json.Marshal(runRequest{Source: src})

	tsA, _, _ := newTestServer(t, ServerConfig{})
	_, a := postRun(t, tsA, string(explicit))
	tsB, _, _ := newTestServer(t, ServerConfig{})
	_, b := postRun(t, tsB, string(implicit))
	if !bytes.Equal(a, b) {
		t.Errorf("explicit and implicit v1 requests differ:\n%s\n---\n%s", a, b)
	}
	var r runResponse
	if err := json.Unmarshal(a, &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != ResponseSchemaV1 {
		t.Errorf("response schema = %q, want %q", r.Schema, ResponseSchemaV1)
	}
	if r.Value == nil || *r.Value != 42 {
		t.Errorf("value = %v, want 42", r.Value)
	}
}

// TestCacheDifferentialCorners is the serving half of the acceptance
// differential: for all four (machine, opt) corners, the cache-hit
// response body must be byte-identical both to this server's own cold
// miss and to a cold recompute on a server that has never cached
// anything.
func TestCacheDifferentialCorners(t *testing.T) {
	for _, machine := range []string{"risc1", "cisc", "rv32"} {
		for opt := 0; opt <= 1; opt++ {
			o := opt
			req, _ := json.Marshal(runRequest{Name: "diff", Source: serveSrc, Machine: machine, Opt: &o})

			ts, _, pool := newTestServer(t, ServerConfig{})
			miss, missBody := postRun(t, ts, string(req))
			hit, hitBody := postRun(t, ts, string(req))
			if got := miss.Header.Get(CacheHeader); got != "miss" {
				t.Errorf("%s/-O%d first: %s = %q, want miss", machine, opt, CacheHeader, got)
			}
			if got := hit.Header.Get(CacheHeader); got != "hit" {
				t.Errorf("%s/-O%d second: %s = %q, want hit", machine, opt, CacheHeader, got)
			}
			if !bytes.Equal(missBody, hitBody) {
				t.Errorf("%s/-O%d: hit body diverged from miss body:\n%s\n---\n%s",
					machine, opt, hitBody, missBody)
			}
			if got := pool.Stats().Submitted; got != 1 {
				t.Errorf("%s/-O%d: pool saw %d submissions, want 1 (hit must not recompute)", machine, opt, got)
			}

			// A server with caching effectively disabled recomputes from
			// scratch; its answer must be the same bytes.
			tsCold, _, _ := newTestServer(t, ServerConfig{CacheBytes: -1})
			_, coldBody := postRun(t, tsCold, string(req))
			if !bytes.Equal(coldBody, hitBody) {
				t.Errorf("%s/-O%d: cache-hit body diverged from uncached recompute:\n%s\n---\n%s",
					machine, opt, hitBody, coldBody)
			}
		}
	}
}

// TestSingleflightServe: N concurrent identical requests produce
// exactly one engine execution and N byte-identical responses, and the
// cache counters reconcile with the request count.
func TestSingleflightServe(t *testing.T) {
	const n = 12
	ts, srv, pool := newTestServer(t, ServerConfig{})
	body, _ := json.Marshal(runRequest{Name: "herd", Source: serveSrc})

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d\n%s", i, resp.StatusCode, b)
			}
			switch h := resp.Header.Get(CacheHeader); h {
			case "hit", "miss", "coalesced":
			default:
				t.Errorf("request %d: %s = %q", i, CacheHeader, h)
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("response %d diverged from response 0:\n%s\n---\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := pool.Stats().Submitted; got != 1 {
		t.Errorf("pool saw %d submissions, want 1 (the herd must collapse)", got)
	}
	s := srv.CacheStats()
	if s.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Misses+s.Coalesced != n {
		t.Errorf("hits(%d)+misses(%d)+coalesced(%d) != %d requests", s.Hits, s.Misses, s.Coalesced, n)
	}
}

// TestAsyncRun drives the 202 + poll flow end to end.
func TestAsyncRun(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	body, _ := json.Marshal(runRequest{Name: "fib", Source: serveSrc, Async: true})
	resp, b := postRun(t, ts, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202\n%s", resp.StatusCode, b)
	}
	var accepted runResponse
	if err := json.Unmarshal(b, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Status != "pending" || accepted.ID == "" {
		t.Fatalf("accepted = %+v, want pending with an id", accepted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var r runResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		if r.Status != "pending" {
			if r.Status != "ok" || r.Value == nil || *r.Value != 55 {
				t.Fatalf("final response = %+v, want ok with value 55", r)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobNotFound covers the poll path for an unknown id.
func TestJobNotFound(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if code := errorCode(t, b); code != "not_found" {
		t.Errorf("code = %q, want not_found", code)
	}
}

// TestHealthAndMetrics checks the operational endpoints: liveness, the
// Prometheus content type, and that every layer's metrics — pool,
// result cache, program cache, warm-start image cache, limiter, session
// manager, and the request-latency histogram — reconcile with a known
// request sequence.
func TestHealthAndMetrics(t *testing.T) {
	ts, _, _ := newTestServer(t, ServerConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", resp.StatusCode)
	}

	// A known request mix, every leg deterministic:
	//  1. fresh run        -> rcache miss, pool executes, imgcache miss
	//  2. identical repeat -> rcache hit, never reaches the pool
	//  3. different fuel   -> rcache miss (fuel is in the result key) but
	//     imgcache HIT (the warm-start image key deliberately ignores it)
	//  4. malformed body   -> bad_request, never reaches the cache
	//  5. debug session on the same program -> second imgcache hit; then
	//     closed, so the session gauges are back to zero.
	body, _ := json.Marshal(runRequest{Source: serveSrc})
	postRun(t, ts, string(body))
	postRun(t, ts, string(body))
	refuel, _ := json.Marshal(runRequest{Source: serveSrc, Fuel: 1 << 20})
	postRun(t, ts, string(refuel))
	postRun(t, ts, `{}`)
	id := createSession(t, ts, sessionRequest{Source: serveSrc})
	doSession(t, "DELETE", ts.URL+"/v1/sessions/"+id, "")

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	text := string(b)
	for _, want := range []string{
		"risc1_pool_workers 2",
		"risc1_pool_jobs_submitted_total 2",
		"risc1_pool_jobs_completed_total 2",
		"risc1_rcache_hits_total 1",
		"risc1_rcache_misses_total 2",
		"risc1_rcache_entries 2",
		"risc1_progcache_misses_total 1",
		// Warm-start image counters reconcile: one build (run 1), then a
		// hit each from run 3 and the session.
		"risc1_imgcache_misses_total 1",
		"risc1_imgcache_hits_total 2",
		// Three runs + one session acquired slots; the bad request never got
		// that far.
		"risc1_http_requests_admitted_total 4",
		"risc1_http_requests_rejected_total 0",
		"risc1_http_inflight_capacity 64",
		// Session lifecycle counters.
		"risc1_session_active 0",
		"risc1_session_created_total 1",
		"risc1_session_closed_total 1",
		"risc1_session_expired_total 0",
		// Latency histogram, labeled by outcome and cache state: counts
		// reconcile with the request mix (sessions are not /v1/run
		// requests and must not appear).
		`risc1_http_request_seconds_count{outcome="ok",cache="miss"} 2`,
		`risc1_http_request_seconds_count{outcome="ok",cache="hit"} 1`,
		`risc1_http_request_seconds_count{outcome="bad_request",cache="none"} 1`,
		`risc1_http_request_seconds_bucket{outcome="ok",cache="hit",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestDeterministicResponses runs the same program twice on fresh
// servers: the responses must be byte-identical, which is what lets the
// goldens (and the cache) exist at all.
func TestDeterministicResponses(t *testing.T) {
	body, _ := json.Marshal(runRequest{Name: "fib", Source: serveSrc})
	tsA, _, _ := newTestServer(t, ServerConfig{})
	_, a := postRun(t, tsA, string(body))
	tsB, _, _ := newTestServer(t, ServerConfig{})
	_, b := postRun(t, tsB, string(body))
	if !bytes.Equal(a, b) {
		t.Errorf("identical requests on fresh servers differ:\n%s\n---\n%s", a, b)
	}
}

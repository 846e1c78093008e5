package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"risc1/internal/exec"
)

// FuzzRunRequest drives arbitrary bodies through the real POST /v1/run
// handler. Whatever the body, the server must not panic; the response
// must be JSON laid out exactly as json.MarshalIndent lays out its own
// decode; a failure must be a v1 envelope with a documented code whose
// HTTP status is statusForCode's; and the only 5xx answers are a
// deadline and an internal error that is not a panicking job.
func FuzzRunRequest(f *testing.F) {
	// The serve fixtures (response bodies are requests too: they decode
	// and are refused as missing a source) and the requests behind them.
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "run_*.json"))
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, req := range []runRequest{
		{Name: "fib", Source: serveSrc},
		{Name: "starved", Source: serveSrc, Fuel: 50},
		{Name: "spin", Source: spinSrc, TimeoutMS: 5},
		{Name: "cisc", Source: serveSrc, Machine: "cisc"},
		{Name: "rv32", Source: serveSrc, Machine: "riscv", Opt: new(int)},
		{Name: "async", Source: serveSrc, Async: true},
		{Schema: RequestSchemaV1, Name: "<\"odd\" é>", Source: "int result; int main() { result = -1; return 0; }"},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2]) // truncated JSON
	}
	for _, s := range []string{
		``, `{`, `[]`, `null`, `"source"`, `{}`, `{"source": ""}`,
		`{"schema": "risc1.run-request/v9", "source": "int main() { return 0; }"}`,
		`{"schema": 7, "source": "x"}`,
		`{"source": "int main() { return undeclared; }"}`,
		`{"source": "int main() { return 0; }", "machine": "pdp11"}`,
		`{"source": "int main() { return 0; }", "opt": 3}`,
		`{"source": "int main() { return 0; }", "fuel": -1}`,
		`{"source": "int main() { return 0; }"} trailing`,
	} {
		f.Add([]byte(s))
	}

	pool := exec.NewPool(exec.Config{Workers: 1})
	srv := NewServer(pool, ServerConfig{
		MaxSource:  1 << 14,
		MaxFuel:    1 << 20,
		MaxTimeout: 100 * time.Millisecond,
		CacheBytes: 4 << 20,
	})
	f.Cleanup(func() {
		srv.DrainSessions()
		pool.Close()
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		got := rec.Body.Bytes()

		dec := json.NewDecoder(bytes.NewReader(got))
		dec.DisallowUnknownFields()
		var resp runResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("status %d: body is not a v1 response: %v\n%s", rec.Code, err, got)
		}
		want, err := json.MarshalIndent(&resp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("body is not its own json.MarshalIndent:\n%s\n---\n%s", got, want)
		}
		if resp.Schema != ResponseSchemaV1 {
			t.Errorf("schema = %q, want %q", resp.Schema, ResponseSchemaV1)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}

		if resp.Error == nil {
			switch {
			case rec.Code == http.StatusOK && resp.Status == "ok" && resp.Value != nil && len(resp.Report) > 0:
			case rec.Code == http.StatusAccepted && resp.Status == "pending" && resp.ID != "":
			default:
				t.Fatalf("status %d without an error envelope:\n%s", rec.Code, got)
			}
			return
		}
		code := resp.Error.Code
		if !slices.Contains(documentedCodes, code) || resp.Status != "" || resp.Value != nil || resp.Report != nil {
			t.Fatalf("status %d: not a documented error envelope:\n%s", rec.Code, got)
		}
		if want := statusForCode(code); rec.Code != want {
			t.Errorf("code %s answered %d, want %d", code, rec.Code, want)
		}
		if rec.Code >= 500 && code != codeDeadline &&
			(code != codeInternal || strings.Contains(resp.Error.Message, "panicked")) {
			t.Errorf("undocumented %d answer:\n%s", rec.Code, got)
		}
	})
}

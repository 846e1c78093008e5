package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"risc1/internal/exec"
	"risc1/internal/loadgen"
)

// BenchmarkServeHit is the serve layer of the hot-zipf workload: POST
// /v1/run through the in-process handler, Zipf(1.1) over a 32-program
// risc1 corpus that was run once up front, so every request is a
// result-cache hit — request decode, key build, cache lookup and
// response write, with no simulation.
func BenchmarkServeHit(b *testing.B) {
	pool := exec.NewPool(exec.Config{Workers: 1})
	defer pool.Close()
	srv := NewServer(pool, ServerConfig{})
	defer srv.DrainSessions()
	h := srv.Handler()

	corpus := loadgen.BuildCorpus(1, 32)
	bodies := make([][]byte, len(corpus.Programs))
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d:\n%s", rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	for i, p := range corpus.Programs {
		body, err := json.Marshal(runRequest{Name: p.Name, Source: p.Source, Machine: "risc1"})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
		serve(body) // warm: the one miss per program
	}

	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(bodies)-1))
	picks := make([]int, 4096)
	for i := range picks {
		picks[i] = int(z.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(bodies[picks[i%len(picks)]]); rec.Header().Get(CacheHeader) != "hit" {
			b.Fatalf("request %d: %s = %q, want hit", i, CacheHeader, rec.Header().Get(CacheHeader))
		}
	}
}

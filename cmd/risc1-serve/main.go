// Command risc1-serve exposes the batch-execution engine as an HTTP
// service behind the v1 API contract (docs/API.md): POST a MiniC
// program, get back the versioned JSON run report the rest of the tool
// chain produces.
//
//	POST   /v1/run                  {"schema": "risc1.run-request/v1", "source": "..."}
//	GET    /v1/jobs/{id}            poll an async run
//	POST   /v1/sessions             create a paused interactive debug session
//	POST   /v1/sessions/{id}        drive it: step / run / breakpoints / reads
//	GET    /v1/sessions/{id}        inspect state, breakpoints, stream counters
//	GET    /v1/sessions/{id}/events live trace events (SSE)
//	DELETE /v1/sessions/{id}        close the session
//	GET    /v1/cluster              replica-set membership, health, capability fingerprint
//	GET    /healthz                 liveness
//	GET    /metrics                 pool, cache, limiter, session, cluster metrics + latency histograms
//
// Every request is bounded three ways: body size (-max-source), an
// instruction budget (-max-fuel), and a wall-clock deadline
// (-max-timeout); requests may ask for less than the caps, never more.
// Identical requests are served from a content-addressed result cache
// (-cache-bytes; the X-Risc1-Cache header says hit, miss, or
// coalesced), admission is bounded (-inflight, -inflight-queue; beyond
// that, 429 + Retry-After) with debug sessions counting against the
// same capacity for their whole lifetime (-session-idle reaps the
// abandoned ones), and SIGTERM drains: sessions close first (open SSE
// streams get a terminal "end" event), then in-flight jobs finish
// (-drain-timeout, after which they are cancelled).
//
//	risc1-serve -addr :8080 -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"risc1/internal/cluster"
	"risc1/internal/exec"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulator workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued pool jobs beyond the running ones (0 = 2x workers)")
	maxSource := flag.Int64("max-source", 1<<20, "largest accepted request body in bytes")
	maxFuel := flag.Uint64("max-fuel", 1<<26, "largest per-run instruction budget")
	maxTimeout := flag.Duration("max-timeout", 10*time.Second, "longest per-run wall-clock deadline")
	inflight := flag.Int("inflight", 64, "admitted /v1/run requests executing at once")
	inflightQueue := flag.Int("inflight-queue", 0, "requests that may wait for an execution slot before 429 (0 = 2x -inflight)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "result-cache budget in bytes (negative = store nothing)")
	progCacheBytes := flag.Int64("prog-cache-bytes", 64<<20, "compiled-program cache budget in bytes (negative = disabled)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight jobs before cancelling them")
	sessionIdle := flag.Duration("session-idle", 2*time.Minute, "how long an untouched debug session survives before it is reaped")
	clusterPath := flag.String("cluster", "", "path to a risc1.cluster-config/v1 JSON file; empty = standalone")
	flag.Parse()

	// Cluster membership comes from the typed config file (-cluster).
	var clusterCfg *cluster.Config
	if *clusterPath != "" {
		cc, err := cluster.Load(*clusterPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "risc1-serve:", err)
			os.Exit(2)
		}
		clusterCfg = &cc
	}

	pool := exec.NewPool(exec.Config{Workers: *workers, Queue: *queue, ProgramCacheBytes: *progCacheBytes})
	srv := NewServer(pool, ServerConfig{
		MaxSource:   *maxSource,
		MaxFuel:     *maxFuel,
		MaxTimeout:  *maxTimeout,
		MaxInflight: *inflight,
		MaxQueue:    *inflightQueue,
		CacheBytes:  *cacheBytes,
		SessionIdle: *sessionIdle,
		Cluster:     clusterCfg,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful drain on SIGTERM/SIGINT: stop accepting HTTP, let
	// in-flight requests and their jobs (async ones included) finish,
	// and only cancel what is still running when the drain budget runs
	// out.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "risc1-serve: draining")
		deadline := time.Now().Add(*drainTimeout)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		// Sessions close before the listener shuts down: every open SSE
		// stream gets its terminal "end" event and returns, so Shutdown
		// (which waits for in-flight handlers) is never held hostage by a
		// long-lived stream until the drain-timeout fallback.
		srv.StopCluster()
		srv.DrainSessions()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "risc1-serve: http shutdown:", err)
		}
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "risc1-serve: "+format+"\n", args...)
		}
		if drainPool(pool, time.Until(deadline), logf) {
			fmt.Fprintln(os.Stderr, "risc1-serve: drained cleanly")
		}
		close(done)
	}()

	fmt.Fprintln(os.Stderr, "risc1-serve: listening on", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "risc1-serve:", err)
		os.Exit(1)
	}
	<-done
}

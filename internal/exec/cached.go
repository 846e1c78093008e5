package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"risc1/internal/fuel"
	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// Cached fronts a Pool with a level-2 result cache: whole run results
// (value and encoded report — or a deterministic failure) keyed by
// Spec.CacheKey. Determinism makes this sound: the engine pins
// byte-identical reports for identical specs, so serving a cached
// result is indistinguishable from recomputing it, and the differential
// tests enforce the byte-identity. Concurrent identical specs are
// collapsed by the cache's singleflight, so a thundering herd of one
// program occupies one worker, not the whole pool.
//
// Results whose outcome depends on wall-clock scheduling — deadline
// expiry, cancellation, panics, pool shutdown — are returned but never
// stored; only deterministic outcomes (success, compile errors, fuel
// exhaustion) are cacheable.
type Cached struct {
	pool  *Pool
	cache *rcache.Cache
}

// NewCached wraps pool with a result cache budgeted to the given number
// of bytes (<= 0 stores nothing but still collapses concurrent
// identical runs).
func NewCached(pool *Pool, budget int64) *Cached {
	return &Cached{pool: pool, cache: rcache.New(budget)}
}

// Pool returns the underlying engine (for stats and lifecycle).
func (c *Cached) Pool() *Pool { return c.pool }

// Stats snapshots the result cache.
func (c *Cached) Stats() obs.CacheStats { return c.cache.Stats() }

// CachedResult is one finished (or cached) run: the same information a
// pool Result carries for a Spec job, in a form that is stable to store
// and replay. A success keeps its report only as encoded JSON, so a hit
// serves stored bytes and never encodes again.
type CachedResult struct {
	// Value is the run's result; meaningful when Err is nil.
	Value int32
	// Report is the run report with the engine's accounting stamped in
	// (Report.Exec: one attempt and the fuel limit), exactly as
	// Report.JSON renders it; set when Err is nil.
	Report []byte
	// Err is the run's deterministic failure (compile error, fuel
	// exhaustion, guest fault) or — on uncached paths only — a
	// scheduling failure (deadline, cancellation, panic) or a report
	// that would not encode.
	Err error
}

// Run executes spec through the cache: a hit returns the stored result
// without touching the pool; a miss submits one pool job and stores the
// result if it is deterministic; concurrent identical specs wait for
// the in-flight run. The returned rcache.Outcome says which of the
// three happened. The error return is reserved for infrastructure
// failures (pool closed, caller context done) — run failures travel in
// CachedResult.Err.
func (c *Cached) Run(ctx context.Context, spec Spec, timeout time.Duration) (CachedResult, rcache.Outcome, error) {
	key := spec.CacheKey(timeout)
	v, out, err := c.cache.Do(ctx, key, func() (any, int64, error) {
		tk, err := c.pool.Submit(ctx, spec.Job(spec.Name, timeout))
		if err != nil {
			return nil, 0, err
		}
		res, err := tk.Result(ctx)
		if err != nil {
			return nil, 0, err
		}
		cr := CachedResult{Err: res.Err}
		if res.Err == nil {
			o := res.Value.(Outcome)
			cr.Value = o.Value
			// The pool runs every job once; the report schema keeps the
			// attempt count, so it always reads 1.
			o.Report.Exec = &obs.ExecStat{Attempts: 1, FuelLimit: spec.Fuel}
			// The one encode of this report. The stored copy is exact-size:
			// the encoder's buffer has room to spare, and every cache entry
			// would pin it.
			if b, err := o.Report.JSON(); err != nil {
				// A non-finite float: never stored (cacheable refuses it),
				// so the request answers 500 and a repeat tries again.
				cr.Err = fmt.Errorf("encode report: %w", err)
			} else {
				cr.Report = append(make([]byte, 0, len(b)), b...)
			}
		}
		return cr, cachedResultSize(cr), nil
	})
	if err != nil {
		return CachedResult{}, out, err
	}
	return v.(CachedResult), out, nil
}

// cachedResultSize charges a result against the byte budget — the
// bytes it stores plus a fixed allowance for the entry itself — or
// returns -1 for results that must not be stored.
func cachedResultSize(cr CachedResult) int64 {
	if !cacheable(cr.Err) {
		return -1
	}
	if cr.Err != nil {
		return int64(len(cr.Err.Error())) + 256
	}
	return int64(len(cr.Report)) + 256
}

// cacheable reports whether a run error is deterministic — a property
// of the program, not of scheduling — and therefore safe to replay to
// future identical requests.
func cacheable(err error) bool {
	switch {
	case err == nil:
		return true
	case errors.As(err, new(*CompileError)):
		return true
	case errors.Is(err, fuel.ErrExhausted):
		return true
	default:
		// Deadlines, cancellations, panics, pool shutdown: correct for
		// this request only.
		return false
	}
}

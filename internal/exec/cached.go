package exec

import (
	"context"
	"errors"
	"time"

	"risc1/internal/fuel"
	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// Cached fronts a Pool with a level-2 result cache: whole run results
// (value, report, attempt count — or a deterministic failure) keyed by
// Spec.CacheKey. Determinism makes this sound: the engine pins
// byte-identical reports for identical specs, so serving a cached
// result is indistinguishable from recomputing it, and the differential
// tests enforce the byte-identity. Concurrent identical specs are
// collapsed by the cache's singleflight, so a thundering herd of one
// program occupies one worker, not the whole pool.
//
// Results whose outcome depends on wall-clock scheduling — deadline
// expiry, cancellation, panics, transient infrastructure errors — are
// returned but never stored; only deterministic outcomes (success,
// compile errors, fuel exhaustion) are cacheable.
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
// and replay.
type CachedResult struct {
	// Outcome is the run's value and report; meaningful when Err is nil.
	Outcome Outcome
	// Attempts is the pool's attempt count for the run that produced
	// this result (1 unless transient retries happened). A cache hit
	// replays the original count, keeping reports byte-identical.
	Attempts int
	// Err is the run's deterministic failure (compile error, fuel
	// exhaustion, guest fault) or — on uncached paths only — a
	// scheduling failure (deadline, cancellation, panic).
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
		cr := CachedResult{Attempts: res.Attempts, Err: res.Err}
		if res.Err == nil {
			cr.Outcome = res.Value.(Outcome)
		}
		return cr, cachedResultSize(cr), nil
	})
	if err != nil {
		return CachedResult{}, out, err
	}
	return v.(CachedResult), out, nil
}

// cachedResultSize sizes a result for the byte budget, or returns -1
// for results that must not be stored.
func cachedResultSize(cr CachedResult) int64 {
	if !cacheable(cr.Err) {
		return -1
	}
	if cr.Err != nil {
		return int64(len(cr.Err.Error())) + 256
	}
	// The report dominates the footprint; its deterministic JSON
	// rendering is an honest proxy for the in-memory size.
	n := int64(4096)
	if b, err := cr.Outcome.Report.JSON(); err == nil {
		n = int64(len(b)) + 256
	}
	return n
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
		// Deadlines, cancellations, panics, pool shutdown, transient
		// infrastructure errors: correct for this request only.
		return false
	}
}

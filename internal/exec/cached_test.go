package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"risc1/internal/obs"
	"risc1/internal/rcache"
)

const cachedSrc = `
int result;
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { result = fib(12); return 0; }
`

// TestCachedDifferential is the acceptance differential: for every
// (machine, opt) corner, the report bytes the cache stores on a miss and
// replays on a hit must equal — byte for byte — a cold Spec.Run on a
// fresh pool that has never seen the program, stamped with the same
// engine accounting and encoded independently by encoding/json.
func TestCachedDifferential(t *testing.T) {
	for _, mach := range []string{"risc1", "cisc", "rv32"} {
		for opt := range 2 {
			spec := Spec{
				Name:       "diff",
				Machine:    mach,
				Source:     cachedSrc,
				Opt:        opt,
				DelaySlots: mach == "risc1",
				Fuel:       1 << 24,
			}

			// Cold recompute: a fresh pool with the program cache disabled,
			// run directly (no result cache anywhere near it).
			coldPool := NewPool(Config{Workers: 1, ProgramCacheBytes: -1})
			coldTk, err := coldPool.Submit(context.Background(), spec.Job("cold", time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := coldTk.Result(context.Background())
			coldPool.Close()
			if err != nil || coldRes.Err != nil {
				t.Fatalf("%s/-O%d cold: %v / %v", mach, opt, err, coldRes.Err)
			}
			cold := coldRes.Value.(Outcome)
			cold.Report.Exec = &obs.ExecStat{Attempts: 1, FuelLimit: spec.Fuel}
			coldJSON, err := json.MarshalIndent(&cold.Report, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			coldJSON = append(coldJSON, '\n')

			// Cached path: miss once, then hit.
			pool := NewPool(Config{Workers: 2})
			cached := NewCached(pool, 1<<20)
			miss, out1, err := cached.Run(context.Background(), spec, time.Minute)
			if err != nil || miss.Err != nil {
				t.Fatalf("%s/-O%d miss: %v / %v", mach, opt, err, miss.Err)
			}
			if out1 != rcache.Miss {
				t.Errorf("%s/-O%d first run outcome = %v, want miss", mach, opt, out1)
			}
			hit, out2, err := cached.Run(context.Background(), spec, time.Minute)
			pool.Close()
			if err != nil || hit.Err != nil {
				t.Fatalf("%s/-O%d hit: %v / %v", mach, opt, err, hit.Err)
			}
			if out2 != rcache.Hit {
				t.Errorf("%s/-O%d second run outcome = %v, want hit", mach, opt, out2)
			}

			for _, cr := range []struct {
				name string
				CachedResult
			}{{"miss", miss}, {"hit", hit}} {
				if cr.Value != cold.Value {
					t.Errorf("%s/-O%d: %s value %d != cold value %d", mach, opt, cr.name, cr.Value, cold.Value)
				}
				if !bytes.Equal(cr.Report, coldJSON) {
					t.Errorf("%s/-O%d: %s report diverged from cold recompute:\n%s\n---\n%s",
						mach, opt, cr.name, cr.Report, coldJSON)
				}
			}
		}
	}
}

// TestCachedSingleflight: N concurrent identical runs reach the engine
// exactly once, everyone gets the same result, and the cache counters
// reconcile (hits + misses + coalesced == N).
func TestCachedSingleflight(t *testing.T) {
	const n = 16
	pool := NewPool(Config{Workers: 4})
	defer pool.Close()
	cached := NewCached(pool, 1<<20)
	spec := Spec{Name: "herd", Source: cachedSrc, DelaySlots: true, Fuel: 1 << 24}

	var wg sync.WaitGroup
	results := make([]CachedResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cr, _, err := cached.Run(context.Background(), spec, time.Minute)
			if err != nil {
				t.Error(err)
			}
			results[i] = cr
		}(i)
	}
	wg.Wait()

	for i, cr := range results {
		if cr.Err != nil {
			t.Fatalf("run %d failed: %v", i, cr.Err)
		}
		if cr.Value != results[0].Value {
			t.Errorf("run %d value %d != run 0 value %d", i, cr.Value, results[0].Value)
		}
	}
	if got := pool.Stats().Submitted; got != 1 {
		t.Errorf("pool saw %d submissions, want 1 (herd must collapse)", got)
	}
	s := cached.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Misses+s.Coalesced != n {
		t.Errorf("cache counters %+v do not reconcile to %d requests", s, n)
	}
}

// TestCachedCompileErrorCached: a compile error is a property of the
// program, so the second identical request is a hit that replays it
// without reaching the engine again.
func TestCachedCompileErrorCached(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Close()
	cached := NewCached(pool, 1<<20)
	spec := Spec{Name: "bad", Source: "int main() { return undeclared; }"}

	first, out, err := cached.Run(context.Background(), spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if out != rcache.Miss || !errors.As(first.Err, new(*CompileError)) {
		t.Fatalf("first: outcome %v err %v, want miss with CompileError", out, first.Err)
	}
	second, out, err := cached.Run(context.Background(), spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if out != rcache.Hit || !errors.As(second.Err, new(*CompileError)) {
		t.Fatalf("second: outcome %v err %v, want hit with CompileError", out, second.Err)
	}
	if first.Err.Error() != second.Err.Error() {
		t.Errorf("replayed error %q != original %q", second.Err, first.Err)
	}
	if got := pool.Stats().Submitted; got != 1 {
		t.Errorf("pool saw %d submissions, want 1", got)
	}
}

// TestCachedDeadlineNotCached: deadline expiry depends on wall-clock
// scheduling, so it must be recomputed every time — both requests miss.
func TestCachedDeadlineNotCached(t *testing.T) {
	pool := NewPool(Config{Workers: 1})
	defer pool.Close()
	cached := NewCached(pool, 1<<20)
	spec := Spec{
		Name:   "spin",
		Source: `int result; int main() { while (1) { result = result + 1; } return 0; }`,
	}

	for i := 0; i < 2; i++ {
		cr, out, err := cached.Run(context.Background(), spec, 30*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if out != rcache.Miss {
			t.Errorf("request %d outcome = %v, want miss (deadlines are uncacheable)", i, out)
		}
		if !errors.Is(cr.Err, context.DeadlineExceeded) {
			t.Errorf("request %d err = %v, want deadline", i, cr.Err)
		}
	}
	if s := cached.Stats(); s.Entries != 0 {
		t.Errorf("cache stored %d entries, want 0", s.Entries)
	}
}

// TestProgramCacheSharedAcrossJobs: two specs differing only in fields
// that don't affect compilation (fuel) share one compiled program, and
// the reports still match a compile-cache-disabled pool byte for byte.
func TestProgramCacheSharedAcrossJobs(t *testing.T) {
	run := func(cacheBytes int64) ([]byte, *Pool) {
		pool := NewPool(Config{Workers: 1, ProgramCacheBytes: cacheBytes})
		spec := Spec{Name: "prog", Source: cachedSrc, DelaySlots: true, Fuel: 1 << 24}
		var last []byte
		for _, fuel := range []uint64{1 << 24, 1 << 25} {
			spec.Fuel = fuel
			tk, err := pool.Submit(context.Background(), spec.Job("p", time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Result(context.Background())
			if err != nil || res.Err != nil {
				t.Fatalf("run: %v / %v", err, res.Err)
			}
			rep := res.Value.(Outcome).Report
			b, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			last = b
		}
		return last, pool
	}

	withCache, pool := run(1 << 20)
	s := pool.ProgramCacheStats()
	img := pool.ImageCacheStats()
	pool.Close()
	// Warm start moves the second run onto the image cache: the source
	// compiles exactly once (inside the image build), and the run with
	// different fuel re-enters the same image — fuel is neither a
	// compile key nor an image key.
	if s.Misses != 1 || s.Hits != 0 {
		t.Errorf("program cache stats = %+v, want exactly 1 compile (fuel is not a compile key)", s)
	}
	if img.Misses != 1 || img.Hits != 1 {
		t.Errorf("image cache stats = %+v, want 1 miss + 1 hit (fuel is not an image key)", img)
	}

	without, pool2 := run(-1)
	if s := pool2.ProgramCacheStats(); s.Misses != 0 || s.Entries != 0 {
		t.Errorf("disabled program cache reports activity: %+v", s)
	}
	pool2.Close()
	if !bytes.Equal(withCache, without) {
		t.Errorf("report with program cache diverged from without:\n%s\n---\n%s", withCache, without)
	}
}

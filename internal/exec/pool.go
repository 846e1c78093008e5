// Package exec is the concurrent batch-execution engine: a bounded
// worker pool that runs compile+simulate jobs — either ISA, either
// optimization level — on per-worker simulator instances. The paper's
// core experiment (the same C workloads on RISC I and a CISC reference)
// is an embarrassingly parallel sweep; the pool turns it from a serial
// loop into a pipeline while keeping results deterministic: batch
// results are ordered by submission index, never by completion order,
// so a report assembled from them is byte-identical at any worker count.
//
// The pool's contract (DESIGN.md §10):
//
//   - Per-job fuel limits (instruction budgets) and wall-clock timeouts
//     via context.Context.
//   - Panic isolation: a crashing guest (or job function) fails its own
//     job with a *PanicError; the worker and the pool survive.
//   - Graceful drain: Close stops intake and waits for queued and
//     running jobs; Shutdown additionally cancels them.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// ErrClosed is returned by Submit after Close or Shutdown.
var ErrClosed = errors.New("exec: pool closed")

// Job is one unit of work. Fn runs on a worker goroutine with that
// worker's simulator cache; it must not retain sims past its return.
type Job struct {
	// Key identifies the job in its Result; batch callers use it to
	// label failures. It does not need to be unique.
	Key string
	// Timeout bounds the job's wall-clock run; zero or less means no
	// limit.
	Timeout time.Duration
	// Fn does the work.
	Fn func(ctx context.Context, sims *Sims) (any, error)
}

// Result is a finished job.
type Result struct {
	Key   string
	Value any
	Err   error
}

// Config sizes the pool.
type Config struct {
	// Workers is the number of worker goroutines, each owning its own
	// simulator cache; <=0 means GOMAXPROCS.
	Workers int
	// Queue is how many accepted jobs may wait beyond the ones running;
	// <=0 means twice Workers. Submit blocks when the queue is full.
	Queue int
	// ProgramCacheBytes budgets the pool-wide compiled-program cache
	// (level 1 of internal/rcache): identical sources compile once
	// pool-wide instead of once per job. Zero means a 64 MiB default;
	// negative disables the cache.
	ProgramCacheBytes int64
}

// imageCacheBytes budgets the pool-wide warm-start image cache:
// compiled+initialized machine snapshots that runs re-enter in
// O(touched pages) instead of repeating the Reset+load prelude.
const imageCacheBytes = 256 << 20

// Pool is the engine. Create with NewPool; all methods are safe for
// concurrent use.
type Pool struct {
	cfg    Config
	jobs   chan *task
	progs  *rcache.Cache // shared compiled-program cache; nil when disabled
	images *rcache.Cache // shared warm-start image cache

	// baseCtx is cancelled by Shutdown, aborting running jobs and
	// unblocking full-queue submitters.
	baseCtx context.Context
	abort   context.CancelFunc

	workerWG sync.WaitGroup // worker goroutines
	taskWG   sync.WaitGroup // accepted, unfinished tasks

	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once

	queued    atomic.Int64
	running   atomic.Int64
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	panics    atomic.Uint64
	rejected  atomic.Uint64
}

type task struct {
	job  Job
	ctx  context.Context // the submitter's context
	done chan struct{}
	res  Result
}

// NewPool starts the workers and returns the running pool.
func NewPool(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Workers
	}
	if cfg.ProgramCacheBytes == 0 {
		cfg.ProgramCacheBytes = 64 << 20
	}
	p := &Pool{cfg: cfg, jobs: make(chan *task, cfg.Queue), images: rcache.New(imageCacheBytes)}
	if cfg.ProgramCacheBytes > 0 {
		p.progs = rcache.New(cfg.ProgramCacheBytes)
	}
	p.baseCtx, p.abort = context.WithCancel(context.Background())
	p.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// ProgramCacheStats snapshots the compiled-program cache; zero when the
// cache is disabled.
func (p *Pool) ProgramCacheStats() obs.CacheStats {
	if p.progs == nil {
		return obs.CacheStats{}
	}
	return p.progs.Stats()
}

// ImageCacheStats snapshots the warm-start image cache.
func (p *Pool) ImageCacheStats() obs.CacheStats { return p.images.Stats() }

// ImageSims returns a Sims wired to the pool's shared compiled-program
// and warm-start image caches but owning no per-worker machines. It
// exists for callers that build machines outside the worker pool (the
// session subsystem): the Compile* and New*Machine methods only touch
// the concurrency-safe shared caches plus fresh local state, so the
// returned Sims may be used from any number of goroutines for those —
// the per-config machine accessors (RISC/VAX) stay goroutine-confined.
func (p *Pool) ImageSims() *Sims {
	s := NewSims()
	s.progs = p.progs
	s.images = p.images
	return s
}

// Stats snapshots the pool's gauges and counters.
func (p *Pool) Stats() obs.PoolStats {
	return obs.PoolStats{
		Workers:   p.cfg.Workers,
		QueueCap:  p.cfg.Queue,
		Queued:    p.queued.Load(),
		Running:   p.running.Load(),
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Failed:    p.failed.Load(),
		Panics:    p.panics.Load(),
		Rejected:  p.rejected.Load(),
	}
}

// Ticket is a handle on a submitted job.
type Ticket struct{ t *task }

// Result blocks until the job finishes or ctx is done. The returned
// error is only ever ctx's: job failures live in Result.Err.
func (tk *Ticket) Result(ctx context.Context) (Result, error) {
	select {
	case <-tk.t.done:
		return tk.t.res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Submit queues a job, blocking while the queue is full. The job's run
// is bounded by ctx (a caller that hangs up cancels its job), the job's
// timeout, and the pool's lifetime.
func (p *Pool) Submit(ctx context.Context, job Job) (*Ticket, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.rejected.Add(1)
		return nil, ErrClosed
	}
	t := &task{job: job, ctx: ctx, done: make(chan struct{})}
	// Count the task before releasing the lock so Close's drain wait
	// always covers it, even while we block on a full queue below.
	p.taskWG.Add(1)
	p.submitted.Add(1)
	p.queued.Add(1)
	p.mu.Unlock()

	select {
	case p.jobs <- t:
		return &Ticket{t: t}, nil
	default:
	}
	select {
	case p.jobs <- t:
		return &Ticket{t: t}, nil
	case <-ctx.Done():
		p.dropPending(t)
		return nil, ctx.Err()
	case <-p.baseCtx.Done():
		p.dropPending(t)
		return nil, ErrClosed
	}
}

// dropPending unwinds the accounting of a task that never made it into
// the queue.
func (p *Pool) dropPending(t *task) {
	p.queued.Add(-1)
	p.submitted.Add(^uint64(0)) // never accepted: not a submission
	p.rejected.Add(1)
	p.taskWG.Done()
	close(t.done)
}

// RunBatch submits every job and waits for them all. Results are
// ordered by the jobs' indices — NOT by completion order — which is
// what makes reports assembled from a batch byte-identical regardless
// of the pool's worker count. A job that could not be submitted or
// awaited carries the submission error in its Result slot.
func (p *Pool) RunBatch(ctx context.Context, jobs []Job) []Result {
	tickets := make([]*Ticket, len(jobs))
	results := make([]Result, len(jobs))
	for i, j := range jobs {
		tk, err := p.Submit(ctx, j)
		if err != nil {
			results[i] = Result{Key: j.Key, Err: err}
			continue
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		res, err := tk.Result(ctx)
		if err != nil {
			res = Result{Key: jobs[i].Key, Err: err}
		}
		results[i] = res
	}
	return results
}

// Close stops intake and drains: it blocks until every accepted job has
// finished, then stops the workers. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.taskWG.Wait()
	p.closeOnce.Do(func() { close(p.jobs) })
	p.workerWG.Wait()
}

// Shutdown stops intake and cancels queued and running jobs, then waits
// for the workers to wind down, giving up when ctx does. Jobs observe
// the cancellation through their contexts and fail with ctx errors.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.abort()
	done := make(chan struct{})
	go func() {
		p.taskWG.Wait()
		p.closeOnce.Do(func() { close(p.jobs) })
		p.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) worker() {
	defer p.workerWG.Done()
	sims := NewSims()
	sims.progs = p.progs
	sims.images = p.images
	for t := range p.jobs {
		p.runTask(sims, t)
	}
}

// runTask drives one task to completion.
func (p *Pool) runTask(sims *Sims, t *task) {
	p.queued.Add(-1)
	p.running.Add(1)
	defer p.running.Add(-1)
	defer p.taskWG.Done()
	defer close(t.done)

	// The job context merges the submitter's context, the pool's
	// lifetime, and the job's wall-clock budget.
	jctx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	stop := context.AfterFunc(p.baseCtx, cancel)
	defer stop()
	// AfterFunc runs in its own goroutine; cancel synchronously when the
	// pool is already shut down so a queued job never starts afterwards.
	if p.baseCtx.Err() != nil {
		cancel()
	}
	if t.job.Timeout > 0 {
		var tcancel context.CancelFunc
		jctx, tcancel = context.WithTimeout(jctx, t.job.Timeout)
		defer tcancel()
	}

	res := Result{Key: t.job.Key}
	res.Value, res.Err = p.runOnce(jctx, sims, t.job)
	if res.Err != nil {
		p.failed.Add(1)
	} else {
		p.completed.Add(1)
	}
	t.res = res
}

// runOnce is the panic-isolation boundary: a panicking job function (or
// guest that trips one in the simulator) fails this job only.
func (p *Pool) runOnce(ctx context.Context, sims *Sims, job Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return job.Fn(ctx, sims)
}

// PanicError is a job that panicked, caught at the worker boundary.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: job panicked: %v", e.Value)
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// valueJob returns v after an optional delay — the minimal job shape
// for exercising the pool machinery itself.
func valueJob(key string, v any, delay time.Duration) Job {
	return Job{Key: key, Fn: func(ctx context.Context, _ *Sims) (any, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return v, nil
	}}
}

// TestBatchOrdering pins the determinism contract: RunBatch results are
// ordered by submission index no matter which worker finishes first.
// Earlier jobs sleep longer, so completion order is roughly reversed.
func TestBatchOrdering(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	defer p.Close()
	const n = 16
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = valueJob(fmt.Sprintf("j%d", i), i, time.Duration(n-i)*time.Millisecond)
	}
	results := p.RunBatch(context.Background(), jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		if res.Value.(int) != i {
			t.Errorf("slot %d holds value %v, want %d", i, res.Value, i)
		}
	}
}

// TestProducersWorkersStress hammers one pool from many producer
// goroutines — the shape the race detector needs to see.
func TestProducersWorkersStress(t *testing.T) {
	p := NewPool(Config{Workers: 5, Queue: 3})
	defer p.Close()
	const producers, perProducer = 8, 40
	var sum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := g*perProducer + i
				tk, err := p.Submit(context.Background(), valueJob("stress", v, 0))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				res, err := tk.Result(context.Background())
				if err != nil || res.Err != nil {
					t.Errorf("result: %v / %v", err, res.Err)
					return
				}
				sum.Add(int64(res.Value.(int)))
			}
		}(g)
	}
	wg.Wait()
	total := int64(producers*perProducer) * int64(producers*perProducer-1) / 2
	if sum.Load() != total {
		t.Errorf("value sum %d, want %d", sum.Load(), total)
	}
	st := p.Stats()
	if st.Completed != producers*perProducer {
		t.Errorf("completed %d, want %d", st.Completed, producers*perProducer)
	}
	if st.Failed != 0 || st.Panics != 0 {
		t.Errorf("failed=%d panics=%d, want 0/0", st.Failed, st.Panics)
	}
}

// TestCancellationMidJob cancels the submitter's context while the job
// is running; the job must observe it and fail with the context error.
func TestCancellationMidJob(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := p.Submit(ctx, Job{Key: "cancel", Fn: func(ctx context.Context, _ *Sims) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	res, err := tk.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("job error = %v, want context.Canceled", res.Err)
	}
}

// TestShutdownWhileQueued fills the queue behind a blocked worker, then
// shuts down: the running job and every queued job must terminate with
// a cancellation error, and Shutdown must return promptly.
func TestShutdownWhileQueued(t *testing.T) {
	p := NewPool(Config{Workers: 1, Queue: 4})
	started := make(chan struct{})
	blocker, err := p.Submit(context.Background(), Job{Key: "blocker", Fn: func(ctx context.Context, _ *Sims) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := p.Submit(context.Background(), valueJob("queued", i, 0))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := p.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res, _ := blocker.Result(context.Background())
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("blocker error = %v, want context.Canceled", res.Err)
	}
	for i, tk := range queued {
		res, _ := tk.Result(context.Background())
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("queued job %d error = %v, want context.Canceled", i, res.Err)
		}
	}
	if _, err := p.Submit(context.Background(), valueJob("late", 0, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown = %v, want ErrClosed", err)
	}
}

// TestSubmitAfterClose pins the intake-stop half of Close.
func TestSubmitAfterClose(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	p.Close()
	if _, err := p.Submit(context.Background(), valueJob("late", 0, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestCloseDrains pins the drain half: jobs accepted before Close all
// complete even though intake has stopped.
func TestCloseDrains(t *testing.T) {
	p := NewPool(Config{Workers: 2, Queue: 8})
	var done atomic.Int64
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := p.Submit(context.Background(), Job{Key: "drain", Fn: func(ctx context.Context, _ *Sims) (any, error) {
			time.Sleep(2 * time.Millisecond)
			done.Add(1)
			return nil, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	p.Close()
	if done.Load() != 8 {
		t.Errorf("after Close, %d jobs done, want 8", done.Load())
	}
	for i, tk := range tickets {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		res, err := tk.Result(ctx)
		cancel()
		if err != nil {
			t.Errorf("ticket %d not done after Close: %v", i, err)
		} else if res.Err != nil {
			t.Errorf("ticket %d: %v", i, res.Err)
		}
	}
}

// TestPanicIsolation runs a panicking job between two good ones: the
// panic becomes that job's *PanicError, the worker survives, and the
// neighbours are untouched.
func TestPanicIsolation(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	jobs := []Job{
		valueJob("before", "ok", 0),
		{Key: "boom", Fn: func(ctx context.Context, _ *Sims) (any, error) { panic("guest exploded") }},
		valueJob("after", "ok", 0),
	}
	results := p.RunBatch(context.Background(), jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("neighbour jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("panicking job error = %v, want *PanicError", results[1].Err)
	}
	if pe.Value != "guest exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %v (stack %d bytes)", pe.Value, len(pe.Stack))
	}
	if st := p.Stats(); st.Panics != 1 || st.Failed != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 1 panic, 1 failed, 2 completed", st)
	}
}

// TestJobTimeout bounds a job that never returns on its own.
func TestJobTimeout(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	tk, _ := p.Submit(context.Background(), Job{
		Key:     "slow",
		Timeout: 10 * time.Millisecond,
		Fn: func(ctx context.Context, _ *Sims) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	res, _ := tk.Result(context.Background())
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Errorf("slow job error = %v, want context.DeadlineExceeded", res.Err)
	}
}

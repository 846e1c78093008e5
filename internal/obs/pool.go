package obs

import (
	"fmt"
	"strings"
)

// PoolStats is a point-in-time snapshot of a batch-execution pool: the
// gauges risc1-serve exports on /metrics and tests assert on. The exec
// package fills it; keeping the type here lets reports and tools consume
// pool state without importing the engine.
type PoolStats struct {
	Workers  int `json:"workers"`
	QueueCap int `json:"queueCap"`

	// Gauges: the pool's current occupancy.
	Queued  int64 `json:"queued"`  // accepted, waiting for a worker
	Running int64 `json:"running"` // executing on a worker now

	// Counters: totals since the pool started.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"` // finished successfully
	Failed    uint64 `json:"failed"`    // finished with an error
	Panics    uint64 `json:"panics"`    // jobs that panicked (isolated, counted as failures)
	Rejected  uint64 `json:"rejected"`  // refused at submission (pool closed)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format, one gauge or counter per line under the risc1_pool_ prefix.
func (s PoolStats) Prometheus() string {
	var b strings.Builder
	row := func(name, kind string, v any) {
		fmt.Fprintf(&b, "# TYPE risc1_pool_%s %s\nrisc1_pool_%s %v\n", name, kind, name, v)
	}
	row("workers", "gauge", s.Workers)
	row("queue_capacity", "gauge", s.QueueCap)
	row("jobs_queued", "gauge", s.Queued)
	row("jobs_running", "gauge", s.Running)
	row("jobs_submitted_total", "counter", s.Submitted)
	row("jobs_completed_total", "counter", s.Completed)
	row("jobs_failed_total", "counter", s.Failed)
	row("job_panics_total", "counter", s.Panics)
	row("jobs_rejected_total", "counter", s.Rejected)
	return b.String()
}

// ExecStat is the per-job execution record a batch engine folds into the
// run reports it returns: how the job was bounded and how many attempts
// it took. The pool runs every job once, so Attempts is always 1; the
// field stays for the report schema. Deterministic for a given job
// (wall-clock times deliberately excluded), so reports stay
// byte-identical across pool sizes.
type ExecStat struct {
	Attempts  int    `json:"attempts"`
	FuelLimit uint64 `json:"fuelLimit,omitempty"`
}

package trace

import (
	"fmt"
	"testing"
)

// TestExecHandleAllocFree pins the fast path's contract: recording an
// instruction through a pre-registered handle allocates nothing. Both
// simulators call ExecHandle once per simulated instruction, so a
// single allocation here would show up as millions per run.
func TestExecHandleAllocFree(t *testing.T) {
	c := New()
	h := c.Handle("add", "alu")
	allocs := testing.AllocsPerRun(1000, func() {
		c.ExecHandle(h, 1)
	})
	if allocs != 0 {
		t.Errorf("ExecHandle allocates %.1f objects per call, want 0", allocs)
	}
}

// TestDepthAndResetAllocFree: a pooled machine resets its collector on
// every request and records a call depth on every call, so once the
// collector has seen its deepest call neither allocates.
func TestDepthAndResetAllocFree(t *testing.T) {
	c := New()
	h := c.Handle("add", "alu")
	run := func() {
		c.Reset()
		for d := 0; d <= 64; d++ {
			c.Depth(d)
		}
		c.Depth(-1)
		c.ExecHandle(h, 1)
		c.Exec("call", "ctl", 1)
	}
	run() // first sight of depth 64 and of the Exec keys
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("steady-state Reset+Depth allocates %.1f objects per run, want 0", allocs)
	}
	if got := c.DepthHistogram(); len(got) != 65 || got[0] != 1 || got[64] != 1 {
		t.Errorf("histogram after a reused run: %v", got)
	}
}

// TestResetBoundsKeptHistogram: Reset keeps a histogram of up to
// keepDepths buckets and releases a longer one, so a collector that once
// saw a deep recursion does not hold its memory forever.
func TestResetBoundsKeptHistogram(t *testing.T) {
	c := New()
	c.Depth(keepDepths - 1)
	c.Reset()
	if got := cap(c.depthHist); got < keepDepths {
		t.Errorf("after depth %d, Reset kept capacity %d, want it reused", keepDepths-1, got)
	}
	c.Depth(100000)
	c.Reset()
	if got := cap(c.depthHist); got > keepDepths {
		t.Errorf("after depth 100000, Reset kept capacity %d, want at most %d", got, keepDepths)
	}
	c.Depth(3)
	if got := c.DepthHistogram(); len(got) != 4 || got[3] != 1 {
		t.Errorf("histogram after release and reuse: %v", got)
	}
}

// TestExecHandleMergesWithExec asserts the fast and slow paths land in
// the same tables.
func TestExecHandleMergesWithExec(t *testing.T) {
	c := New()
	h := c.Handle("add", "alu")
	c.ExecHandle(h, 1)
	c.Exec("add", "alu", 1)
	ops := c.OpCounts()
	if len(ops) != 1 || ops[0].Name != "add" || ops[0].Count != 2 {
		t.Errorf("OpCounts = %+v, want one add row with count 2", ops)
	}
	mix := c.Mix()
	if len(mix) != 1 || mix[0].Name != "alu" || mix[0].Count != 2 {
		t.Errorf("Mix = %+v, want one alu row with count 2", mix)
	}
}

// BenchmarkExecHandle measures the per-instruction accounting cost; run
// with -benchmem to see the zero-allocation guarantee.
func BenchmarkExecHandle(b *testing.B) {
	c := New()
	h := c.Handle("add", "alu")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ExecHandle(h, 1)
	}
}

// BenchmarkExec is the map-backed slow path, for comparison.
func BenchmarkExec(b *testing.B) {
	c := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Exec("add", "alu", 1)
	}
}

// BenchmarkMixAndOpCounts is the report-building cost: both frequency
// tables over a collector with a simulator-sized handle set, a third of
// it executed.
func BenchmarkMixAndOpCounts(b *testing.B) {
	c := New()
	classes := []string{"alu", "memory", "control", "misc"}
	for i := 0; i < 90; i++ {
		h := c.Handle(fmt.Sprintf("op%02d", i), classes[i%len(classes)])
		if i%3 == 0 {
			for j := 0; j <= i; j++ {
				c.ExecHandle(h, 1)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Mix()
		c.OpCounts()
	}
}

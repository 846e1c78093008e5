// Package trace collects dynamic execution statistics shared by the
// RISC I simulator and the CISC baseline: instruction counts, cycle
// counts, per-opcode and per-class mixes, and the call-depth histogram
// behind the paper's register-window experiments.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Collector accumulates execution statistics. Opcode and class names are
// strings so that machines with different instruction sets can share the
// reporting code. Hot simulators should register a Handle per opcode once
// and use ExecHandle per instruction; Exec remains for occasional events.
type Collector struct {
	Instructions uint64
	Cycles       uint64

	ops     map[string]uint64
	classes map[string]uint64

	handles []handleCounter

	// depthHist counts activations by call depth; negative depths are
	// not recorded. Reset zeroes it in place, so a reused collector
	// records without allocating once it has seen its deepest call, but
	// drops it once it has grown past keepDepths.
	depthHist []uint64
	maxDepth  int
}

// keepDepths is the longest depth histogram Reset keeps for reuse: a
// pooled machine that once served a deep recursion does not hold that
// histogram's memory for every later request.
const keepDepths = 1024

type handleCounter struct {
	op, class string
	n         uint64
}

// Handle pre-registers an (opcode, class) pair and returns an index for
// ExecHandle. Handles survive Reset (their counts are zeroed).
func (c *Collector) Handle(op, class string) int {
	c.handles = append(c.handles, handleCounter{op: op, class: class})
	return len(c.handles) - 1
}

// ExecHandle records one executed instruction through a pre-registered
// handle — the allocation- and hash-free fast path. It is three integer
// increments and stays allocation-free by contract; the alloc test and
// BenchmarkExecHandle in this package enforce it, and both simulators'
// per-instruction accounting depends on it.
func (c *Collector) ExecHandle(h int, cycles uint64) {
	c.Instructions++
	c.Cycles += cycles
	c.handles[h].n++
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		ops:     make(map[string]uint64),
		classes: make(map[string]uint64),
	}
}

// Exec records one executed instruction of the given opcode and class
// costing the given number of cycles. This is the map-backed slow path:
// it hashes both strings on every call, so it is for occasional events
// and ad-hoc tools only. Per-instruction recording in a simulator loop
// should register a Handle per opcode once and call ExecHandle; the two
// paths merge in Mix/OpCounts, so mixing them stays correct.
func (c *Collector) Exec(op, class string, cycles uint64) {
	c.Instructions++
	c.Cycles += cycles
	c.ops[op]++
	c.classes[class]++
}

// AddCycles records cycles not attributable to an instruction (e.g.
// window overflow trap overhead).
func (c *Collector) AddCycles(n uint64) { c.Cycles += n }

// Depth records that an activation began at the given call depth. A
// negative depth (a program returning above its entry activation) is
// dropped, as the histogram has no bucket for it.
func (c *Collector) Depth(d int) {
	if d < 0 {
		return
	}
	if d >= len(c.depthHist) {
		c.depthHist = append(c.depthHist, make([]uint64, d+1-len(c.depthHist))...)
	}
	c.depthHist[d]++
	if d > c.maxDepth {
		c.maxDepth = d
	}
}

// MaxDepth returns the deepest call depth recorded.
func (c *Collector) MaxDepth() int { return c.maxDepth }

// DepthHistogram returns call counts indexed by depth, 0..MaxDepth.
func (c *Collector) DepthHistogram() []uint64 {
	out := make([]uint64, c.maxDepth+1)
	copy(out, c.depthHist)
	return out
}

// Share is one row of a frequency table.
type Share struct {
	Name  string
	Count uint64
	Frac  float64 // of total instructions
}

// Mix returns the dynamic class mix, largest first — the paper's
// instruction-mix table.
func (c *Collector) Mix() []Share { return c.shares(c.classes, true) }

// OpCounts returns per-opcode dynamic counts, largest first.
func (c *Collector) OpCounts() []Share { return c.shares(c.ops, false) }

// shares builds a frequency table from a name map and the handle
// counts: one row per distinct name, ordered by count then name.
func (c *Collector) shares(m map[string]uint64, byClass bool) []Share {
	out := make([]Share, 0, len(m)+len(c.handles))
	for name, n := range m {
		out = append(out, Share{Name: name, Count: n})
	}
	for _, h := range c.handles {
		if h.n == 0 {
			continue
		}
		name := h.op
		if byClass {
			name = h.class
		}
		out = append(out, Share{Name: name, Count: h.n})
	}
	// Several handles (and the map) may carry one name: merge them.
	slices.SortFunc(out, func(a, b Share) int { return strings.Compare(a.Name, b.Name) })
	merged := out[:0]
	for _, s := range out {
		if k := len(merged) - 1; k >= 0 && merged[k].Name == s.Name {
			merged[k].Count += s.Count
			continue
		}
		merged = append(merged, s)
	}
	out = merged
	for i := range out {
		if c.Instructions > 0 {
			out[i].Frac = float64(out[i].Count) / float64(c.Instructions)
		}
	}
	slices.SortStableFunc(out, func(a, b Share) int { return cmp.Compare(b.Count, a.Count) })
	return out
}

// Clone returns a deep copy of the collector: counters, per-handle
// counts, maps and the depth histogram. Handle indices stay valid on
// the clone. Machine snapshots and forks use it.
func (c *Collector) Clone() *Collector {
	n := &Collector{
		ops:     make(map[string]uint64, len(c.ops)),
		classes: make(map[string]uint64, len(c.classes)),
		handles: make([]handleCounter, len(c.handles)),
	}
	n.CopyFrom(c)
	return n
}

// CopyFrom overwrites this collector's statistics with src's, in place,
// so holders of the *Collector pointer observe the restored state. Both
// collectors must have registered the same handles (same machine type);
// it panics otherwise.
func (c *Collector) CopyFrom(src *Collector) {
	if len(c.handles) != len(src.handles) {
		panic(fmt.Sprintf("trace: copy between collectors with %d and %d handles", len(src.handles), len(c.handles)))
	}
	c.Instructions = src.Instructions
	c.Cycles = src.Cycles
	copy(c.handles, src.handles)
	clear(c.ops)
	for k, v := range src.ops {
		c.ops[k] = v
	}
	clear(c.classes)
	for k, v := range src.classes {
		c.classes[k] = v
	}
	c.depthHist = append(c.depthHist[:0], src.depthHist...)
	c.maxDepth = src.maxDepth
}

// Reset clears all statistics in place, allocating nothing. Registered
// handles remain valid with their counts zeroed.
func (c *Collector) Reset() {
	c.Instructions = 0
	c.Cycles = 0
	clear(c.ops)
	clear(c.classes)
	for i := range c.handles {
		c.handles[i].n = 0
	}
	if cap(c.depthHist) > keepDepths {
		c.depthHist = nil
	} else {
		clear(c.depthHist)
	}
	c.maxDepth = 0
}

package cc

import (
	"sort"

	"risc1/internal/cc/ir"
)

// Temporary allocation shared by all three backends: a backward
// liveness analysis over the CFG, live intervals in layout order, and a
// linear scan over the given register pool with furthest-end spilling.
// The machines differ only in the pool they offer and in whether a call
// destroys it: RISC I's register windows preserve the caller's locals
// across calls, while the CISC machine's evaluation registers and
// RV32's t-registers are caller-saved, so temporaries that live across
// a call are forced into frame slots up front (on the CISC machine a
// frame operand is native anyway).

// tempLoc is where one temporary lives for its whole lifetime.
type tempLoc struct {
	reg  int // register number, or -1 when spilled
	slot int // spill slot index when reg < 0
}

// allocation maps every temporary of a function to its home.
type allocation struct {
	loc     []tempLoc
	nSpills int
}

// interval is a temporary's live range in instruction-point numbering.
type interval struct {
	temp       int
	start, end int
}

// allocateTemps assigns every live temporary of f a register from
// pool or a spill slot. When spillAcrossCalls is set, temporaries
// whose interval spans an OpCall never get a register.
func allocateTemps(f *ir.Func, pool []int, spillAcrossCalls bool) allocation {
	a := allocation{loc: make([]tempLoc, f.NTemps)}
	for i := range a.loc {
		a.loc[i] = tempLoc{reg: -1, slot: -1}
	}
	if f.NTemps == 0 {
		return a
	}

	intervals, callPoints := liveIntervals(f)

	spill := func(t int) {
		a.loc[t] = tempLoc{reg: -1, slot: a.nSpills}
		a.nSpills++
	}

	// Force call-crossing temporaries into the frame where required.
	var scan []interval
	for _, iv := range intervals {
		forced := false
		if spillAcrossCalls {
			for _, cp := range callPoints {
				if iv.start < cp && iv.end > cp {
					forced = true
					break
				}
			}
		}
		if forced {
			spill(iv.temp)
		} else {
			scan = append(scan, iv)
		}
	}

	// Linear scan in order of interval start.
	sort.Slice(scan, func(i, j int) bool { return scan[i].start < scan[j].start })
	free := append([]int(nil), pool...)
	var active []interval // sorted by end, all holding registers
	for _, iv := range scan {
		// Expire intervals that ended before this one starts.
		k := 0
		for _, act := range active {
			if act.end >= iv.start {
				active[k] = act
				k++
			} else {
				free = append(free, a.loc[act.temp].reg)
			}
		}
		active = active[:k]

		if len(free) > 0 {
			a.loc[iv.temp] = tempLoc{reg: free[len(free)-1], slot: -1}
			free = free[:len(free)-1]
		} else {
			// Spill whichever of the active intervals (or this one)
			// lives longest.
			victim := -1
			for j, act := range active {
				if act.end > iv.end && (victim < 0 || act.end > active[victim].end) {
					victim = j
				}
			}
			if victim >= 0 {
				v := active[victim]
				a.loc[iv.temp] = tempLoc{reg: a.loc[v.temp].reg, slot: -1}
				spill(v.temp)
				active = append(active[:victim], active[victim+1:]...)
			} else {
				spill(iv.temp)
				continue
			}
		}
		active = append(active, iv)
		sort.Slice(active, func(i, j int) bool { return active[i].end < active[j].end })
	}
	return a
}

// liveIntervals numbers instruction points in layout order and builds
// one hole-free interval per live temporary, widened to block
// boundaries where liveness crosses them. It also reports the points
// occupied by calls.
func liveIntervals(f *ir.Func) ([]interval, []int) {
	liveIn, liveOut := liveness(f)

	start := make([]int, f.NTemps)
	end := make([]int, f.NTemps)
	for t := range start {
		start[t] = -1
	}
	touch := func(t, p int) {
		if start[t] < 0 || p < start[t] {
			start[t] = p
		}
		if p > end[t] {
			end[t] = p
		}
	}

	var callPoints []int
	p := 0
	for bi, b := range f.Blocks {
		blockStart := p
		for k := range b.Instrs {
			in := &b.Instrs[k]
			for _, op := range in.Operands() {
				if op.Kind == ir.ValTemp {
					touch(op.Temp, p)
				}
			}
			if in.Dst.Kind == ir.ValTemp {
				touch(in.Dst.Temp, p)
			}
			if in.Op == ir.OpCall {
				callPoints = append(callPoints, p)
			}
			p++
		}
		for _, op := range b.Term.Operands() {
			if op.Kind == ir.ValTemp {
				touch(op.Temp, p)
			}
		}
		blockEnd := p
		p++
		for t := range liveIn[bi] {
			touch(t, blockStart)
		}
		for t := range liveOut[bi] {
			touch(t, blockEnd)
		}
	}

	var out []interval
	for t := range start {
		if start[t] >= 0 {
			out = append(out, interval{temp: t, start: start[t], end: end[t]})
		}
	}
	return out, callPoints
}

// liveness computes per-block live-in/live-out temporary sets with the
// standard backward dataflow iteration.
func liveness(f *ir.Func) (liveIn, liveOut []map[int]struct{}) {
	n := len(f.Blocks)
	index := make(map[*ir.Block]int, n)
	for i, b := range f.Blocks {
		index[b] = i
	}

	use := make([]map[int]struct{}, n)
	def := make([]map[int]struct{}, n)
	for i, b := range f.Blocks {
		use[i] = map[int]struct{}{}
		def[i] = map[int]struct{}{}
		for k := range b.Instrs {
			in := &b.Instrs[k]
			for _, op := range in.Operands() {
				if op.Kind == ir.ValTemp {
					if _, d := def[i][op.Temp]; !d {
						use[i][op.Temp] = struct{}{}
					}
				}
			}
			if in.Dst.Kind == ir.ValTemp {
				def[i][in.Dst.Temp] = struct{}{}
			}
		}
		for _, op := range b.Term.Operands() {
			if op.Kind == ir.ValTemp {
				if _, d := def[i][op.Temp]; !d {
					use[i][op.Temp] = struct{}{}
				}
			}
		}
	}

	liveIn = make([]map[int]struct{}, n)
	liveOut = make([]map[int]struct{}, n)
	for i := range liveIn {
		liveIn[i] = map[int]struct{}{}
		liveOut[i] = map[int]struct{}{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Term.Succs() {
				for t := range liveIn[index[s]] {
					if _, ok := liveOut[i][t]; !ok {
						liveOut[i][t] = struct{}{}
						changed = true
					}
				}
			}
			for t := range use[i] {
				if _, ok := liveIn[i][t]; !ok {
					liveIn[i][t] = struct{}{}
					changed = true
				}
			}
			for t := range liveOut[i] {
				if _, d := def[i][t]; !d {
					if _, ok := liveIn[i][t]; !ok {
						liveIn[i][t] = struct{}{}
						changed = true
					}
				}
			}
		}
	}
	return liveIn, liveOut
}

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
	var buf ir.OperandBuf
	first := make([]int, len(f.Blocks)) // each block's first point
	p := 0
	for bi, b := range f.Blocks {
		first[bi] = p
		for k := range b.Instrs {
			in := &b.Instrs[k]
			for _, op := range in.Operands(buf[:0]) {
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
		for _, op := range b.Term.Operands(buf[:0]) {
			if op.Kind == ir.ValTemp {
				touch(op.Temp, p)
			}
		}
		p++
	}

	// A temporary live into a block reaches its first point, one live
	// out of it reaches its terminator. touch only takes a minimum and a
	// maximum, so the order liveness reports blocks in cannot change the
	// intervals.
	liveness(f, func(t, b int, out bool) {
		if out {
			touch(t, first[b]+len(f.Blocks[b].Instrs))
		} else {
			touch(t, first[b])
		}
	})

	var out []interval
	for t := range start {
		if start[t] >= 0 {
			out = append(out, interval{temp: t, start: start[t], end: end[t]})
		}
	}
	return out, callPoints
}

// liveness reports where temporaries are live across block boundaries:
// visit(t, b, false) once for every block b that temporary t is live
// into, and visit(t, b, true) at least once for every block t is live
// out of. Instead of iterating per-block sets to a fixed point, it walks
// backward from each block with an upward-exposed use of t, through
// predecessors, stopping at blocks that define t. That finds the same
// least solution in time and memory linear in the function and in the
// size of the live sets: a large function whose temporaries each live
// in a few blocks costs no blocks × temporaries table.
func liveness(f *ir.Func, visit func(t, b int, out bool)) {
	n := len(f.Blocks)
	index := make(map[*ir.Block]int, n)
	for i, b := range f.Blocks {
		index[b] = i
	}

	// Three families of lists threaded through slices of entries: the
	// predecessors of each block, and the blocks where each temporary
	// has an upward-exposed use or a definition. A head holds the index
	// of its list's first entry, -1 when the list is empty.
	type entry struct{ block, next int32 }
	var preds, uses, defs []entry
	push := func(list *[]entry, head []int32, x, b int) {
		*list = append(*list, entry{int32(b), head[x]})
		head[x] = int32(len(*list) - 1)
	}
	predHead := make([]int32, n)
	useHead := make([]int32, f.NTemps)
	defHead := make([]int32, f.NTemps)
	for _, head := range [][]int32{predHead, useHead, defHead} {
		for i := range head {
			head[i] = -1
		}
	}

	// usedIn[t] and defdIn[t] are 1 + the last block whose list entry
	// for t was pushed, so each block records a temporary once and
	// knows whether it already defined t above the current instruction.
	usedIn := make([]int32, f.NTemps)
	defdIn := make([]int32, f.NTemps)
	var buf ir.OperandBuf
	for i, b := range f.Blocks {
		for _, s := range b.Term.Succs() {
			push(&preds, predHead, index[s], i)
		}
		mark := int32(i + 1)
		use := func(ops []*ir.Value) {
			for _, op := range ops {
				if t := op.Temp; op.Kind == ir.ValTemp && defdIn[t] != mark && usedIn[t] != mark {
					usedIn[t] = mark
					push(&uses, useHead, t, i)
				}
			}
		}
		for k := range b.Instrs {
			in := &b.Instrs[k]
			use(in.Operands(buf[:0]))
			if t := in.Dst.Temp; in.Dst.Kind == ir.ValTemp && defdIn[t] != mark {
				defdIn[t] = mark
				push(&defs, defHead, t, i)
			}
		}
		use(b.Term.Operands(buf[:0]))
	}

	// liveIn[b] and defines[b] are 1 + the temporary being walked when
	// it is live into b, or b defines it.
	liveIn := make([]int32, n)
	defines := make([]int32, n)
	var work []int32
	for t := 0; t < f.NTemps; t++ {
		mark := int32(t + 1)
		for e := defHead[t]; e >= 0; e = defs[e].next {
			defines[defs[e].block] = mark
		}
		for e := useHead[t]; e >= 0; e = uses[e].next {
			if b := uses[e].block; liveIn[b] != mark {
				liveIn[b] = mark
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			visit(t, int(b), false)
			for e := predHead[b]; e >= 0; e = preds[e].next {
				p := preds[e].block
				visit(t, int(p), true)
				if defines[p] != mark && liveIn[p] != mark {
					liveIn[p] = mark
					work = append(work, p)
				}
			}
		}
	}
}

package asm

import (
	"risc1/internal/isa"
	"risc1/internal/syntax"
)

// optimize fills delayed-jump slots: where a jump is followed by a NOP
// and preceded by an instruction that can legally execute after the jump
// instead of before it, the predecessor moves into the shadow slot. This
// is the branch optimization the paper's compiler performed; its fill
// rate is one of the reproduced results.
//
// Only JMP/JMPR slots are filled. CALL/RET slots are left alone because
// the register window changes with the transfer, so an instruction moved
// into the slot would address different physical registers.
func optimize(items []item) []item {
	for i := 1; i+1 < len(items); i++ {
		br := &items[i]
		if br.Kind != syntax.ItemInst || (br.Inst.op != isa.JMP && br.Inst.op != isa.JMPR) {
			continue
		}
		slot := &items[i+1]
		cand := &items[i-1]
		if !isNop(*slot) || len(slot.Labels) != 0 {
			continue // slot already useful, or a jump target
		}
		if len(br.Labels) != 0 || len(cand.Labels) != 0 {
			// Moving the candidate across a label would change what
			// executes on paths that enter at the label.
			continue
		}
		if !movable(*cand, *br) {
			continue
		}
		// The candidate must not itself sit in another transfer's slot.
		if i >= 2 && inSlotOf(items[i-2]) {
			continue
		}
		// Swap candidate and branch; the old NOP disappears.
		items[i-1], items[i] = items[i], items[i-1]
		items = append(items[:i+1], items[i+2:]...)
	}
	fillFromTargets(items)
	return items
}

// fillFromTargets handles slots the predecessor pass could not fill: for
// an *unconditional* jump to a label, the first instruction at the
// target can be copied into the shadow slot and the jump retargeted four
// bytes past the label — the executed stream is provably identical, so
// this is always safe. (The paper's compiler also filled conditional
// slots this way, accepting a wasted instruction on the fall-through
// path; this implementation stays strictly semantics-preserving.)
func fillFromTargets(items []item) {
	// Label addresses are not assigned yet (layout runs later), so
	// targets resolve through the attached label names.
	labelItem := make(map[string]int, len(items))
	for i, it := range items {
		for _, l := range it.Labels {
			labelItem[l] = i
		}
	}
	for i := 0; i+1 < len(items); i++ {
		br := &items[i]
		if br.Kind != syntax.ItemInst || br.Inst.op != isa.JMPR || isa.Cond(br.Inst.rd&0x0f) != isa.CondAlways {
			continue
		}
		slot := &items[i+1]
		if !isNop(*slot) || len(slot.Labels) != 0 {
			continue
		}
		sym, ok := br.Inst.longE.(syntax.Sym)
		if !ok {
			continue
		}
		ti, ok := labelItem[sym.Name]
		if !ok {
			continue
		}
		target := items[ti]
		if target.Kind != syntax.ItemInst || target.Inst.op.Info().Class == isa.ClassCtrl {
			continue
		}
		// Copy the target instruction into the slot and jump past it.
		copied := target
		copied.Labels = nil
		items[i+1] = copied
		br.Inst.longE = syntax.Binary{Op: "+", X: sym, Y: syntax.Num{V: isa.InstBytes}, Line: br.Line}
	}
}

// inSlotOf reports whether the item preceding a candidate is a control
// transfer, which would make the candidate that transfer's delay slot.
func inSlotOf(prev item) bool {
	return prev.Kind == syntax.ItemInst && prev.Inst.op.Info().Class == isa.ClassCtrl
}

// movable reports whether cand may execute after br rather than before
// it. Since the delay slot executes on both the taken and the untaken
// path, ordinary data flow is preserved automatically; the only hazards
// are the branch's own inputs: its condition codes and its target
// registers.
func movable(candItem, brItem item) bool {
	if candItem.Kind != syntax.ItemInst {
		return false
	}
	cand, br := candItem.Inst, brItem.Inst
	info := cand.op.Info()
	if info.Class == isa.ClassCtrl {
		return false // never move a transfer into a slot
	}
	if cand.op == isa.PUTPSW {
		return false // rewrites the condition codes wholesale
	}
	// A conditional branch reads the flags; don't move their producer.
	if cand.scc && isa.Cond(br.rd&0x0f) != isa.CondAlways {
		return false
	}
	// A register-form JMP reads rs1 (and rs2); don't move its producer.
	if br.op == isa.JMP {
		writes := candWrites(cand)
		if writes != 0 && (cand.rd == br.rs1 || (!br.hasImm && cand.rd == br.rs2)) {
			return false
		}
	}
	return true
}

// candWrites reports whether the candidate writes a visible register
// (returns 0 for stores and PSW writes, 1 otherwise). Writes to r0 are
// architectural no-ops but are conservatively treated as writes.
func candWrites(cand inst) int {
	if cand.op.Info().Store || cand.op == isa.PUTPSW {
		return 0
	}
	return 1
}

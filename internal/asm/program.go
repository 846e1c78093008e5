// Package asm is the RISC I dialect of the shared two-pass assembler
// (internal/syntax): its instructions and pseudo-ops, the delayed-jump
// optimizer the paper's compiler used to fill branch shadow slots, and
// static statistics (code size, delay-slot fill rate) for the
// evaluation tables.
package asm

import (
	"fmt"

	"risc1/internal/syntax"
)

// Segment is a contiguous block of assembled bytes, the shared
// syntax.Segment under the name this package's callers use.
type Segment = syntax.Segment

// SlotStats reports what the delayed-jump optimizer did — the static side
// of the paper's branch-optimization experiment.
type SlotStats struct {
	Transfers int // control-transfer instructions assembled
	Filled    int // delay slots filled with useful work by the optimizer
	Nops      int // delay slots left holding a NOP
}

// FillRate returns the fraction of delay slots holding useful work.
func (s SlotStats) FillRate() float64 {
	if s.Transfers == 0 {
		return 0
	}
	return float64(s.Filled) / float64(s.Transfers)
}

// Program is the output of the assembler: the shared image and symbol
// table, plus the delay-slot statistics.
type Program struct {
	syntax.Program
	Slots SlotStats
}

// Error is an assembly diagnostic with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

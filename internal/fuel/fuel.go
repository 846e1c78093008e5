// Package fuel is the one run driver every simulator embeds: the
// instruction budget ("fuel") of batch execution, the quantum between
// context checks, and the Run/RunContext/RunSteps/SetMaxInstructions
// surface built on them. A backend supplies only its tight step loop
// (Stepper.StepN) and its error prefix; the fuel compare happens once
// per budget slice, not once per instruction.
package fuel

import (
	"context"
	"errors"
	"fmt"

	"risc1/internal/trace"
)

// ErrExhausted is wrapped by the error a run returns when the program
// exhausts its instruction budget, on every machine. Check with
// errors.Is.
var ErrExhausted = errors.New("instruction limit exceeded")

// Quantum is how many instructions RunContext executes between context
// checks: large enough that the check is free against the cost of
// simulating the quantum, small enough that cancellation and deadlines
// take effect in well under a millisecond of host time.
const Quantum = 8192

// DefaultLimit is the budget a zero limit stands for.
const DefaultLimit = 1 << 32

// Stepper is the loop a backend supplies to the driver.
type Stepper interface {
	// StepN executes up to n instructions, stopping early at a halt.
	// Each instruction adds at most one to the trace's count.
	StepN(n uint64)
	// PC is the address of the next instruction, for the fuel message.
	PC() uint32
	// Halted reports whether the machine stopped, and the fault if any.
	Halted() (bool, error)
}

// Driver runs a Stepper under a fuel budget. Backends embed it, so its
// methods are the machine's own.
type Driver struct {
	m      Stepper
	tr     *trace.Collector // counts executed instructions
	prefix string           // error prefix: "cpu", "vax", "rv32"
	limit  uint64
}

// New builds the driver for m, whose instructions tr counts; a zero
// limit means DefaultLimit.
func New(prefix string, m Stepper, tr *trace.Collector, limit uint64) Driver {
	d := Driver{m: m, tr: tr, prefix: prefix}
	d.SetMaxInstructions(limit)
	return d
}

// Rebind returns the driver for a fork of its machine: m counted by tr,
// under the same prefix and current budget.
func (d *Driver) Rebind(m Stepper, tr *trace.Collector) Driver {
	return Driver{m: m, tr: tr, prefix: d.prefix, limit: d.limit}
}

// Run executes until the program halts, faults, or exceeds the
// instruction limit. It returns the reason for an abnormal stop.
func (d *Driver) Run() error {
	return d.RunContext(context.Background())
}

// RunContext executes like Run but additionally stops between
// instruction quanta when ctx is cancelled or its deadline passes,
// returning the context's error. Cancellation never corrupts state: the
// machine stops on an instruction boundary and can be resumed with
// another call. A context that is already done returns before the first
// quantum — zero instructions execute.
func (d *Driver) RunContext(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		halted, err := d.RunSteps(Quantum)
		if err != nil {
			return err
		}
		if halted {
			return nil
		}
	}
}

// RunSteps executes at most n instructions. It reports whether the
// machine halted, with the fault (or wrapped ErrExhausted) as the
// error. halted false with a nil error means the budget n ran out with
// the program still going. The limit is checked before each slice of
// at most limit-executed instructions; since an instruction counts at
// most once, no instruction starts past the limit, and the error comes
// exactly when one more would.
func (d *Driver) RunSteps(n uint64) (bool, error) {
	for n > 0 {
		if halted, _ := d.m.Halted(); halted {
			break
		}
		used := d.tr.Instructions
		if used >= d.limit {
			return false, fmt.Errorf("%s: %w: limit %d at pc %#08x", d.prefix, ErrExhausted, d.limit, d.m.PC())
		}
		k := min(n, d.limit-used)
		d.m.StepN(k)
		n -= k
	}
	return d.m.Halted()
}

// SetMaxInstructions replaces the instruction budget without rebuilding
// the machine — batch-execution workers reuse one simulator across jobs
// with differing limits. Zero restores DefaultLimit.
func (d *Driver) SetMaxInstructions(n uint64) {
	if n == 0 {
		n = DefaultLimit
	}
	d.limit = n
}

package cpu

import (
	"context"
	"errors"
	"testing"

	"risc1/internal/fuel"
)

// spinProg is an infinite busy loop — the guest shape the cooperative
// cancellation machinery exists for.
const spinProg = `
main:	ba main
	nop
`

// TestRunContextCancellation stops an infinite guest loop from the
// outside. A context that is already cancelled returns before any
// instruction executes; one cancelled mid-run is noticed within one run
// quantum, on an instruction boundary, and the machine can resume.
func TestRunContextCancellation(t *testing.T) {
	prog := assemble(t, spinProg)
	c := New(Config{})
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext = %v, want context.Canceled", err)
	}
	if c.Trace.Instructions != 0 {
		t.Errorf("pre-cancelled context executed %d instructions, want 0", c.Trace.Instructions)
	}

	// Mid-run: let one quantum pass by hand, then a cancelled context
	// stops the next boundary without losing the machine.
	if _, err := c.RunSteps(fuel.Quantum); err != nil {
		t.Fatal(err)
	}
	before := c.Trace.Instructions
	if err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("resumed RunContext = %v, want context.Canceled", err)
	}
	if c.Trace.Instructions != before {
		t.Errorf("cancelled resume executed %d more instructions, want 0",
			c.Trace.Instructions-before)
	}
	if halted, err := c.RunSteps(10); err != nil || halted {
		t.Errorf("machine not resumable after cancellation: %v, %v", halted, err)
	}
}

// TestRunStepsBudget pins the quantum primitive: RunSteps executes at
// most n instructions and reports the halt state.
func TestRunStepsBudget(t *testing.T) {
	prog := assemble(t, spinProg)
	c := New(Config{})
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	halted, err := c.RunSteps(100)
	if err != nil || halted {
		t.Fatalf("RunSteps = %v, %v; want running, nil", halted, err)
	}
	if c.Trace.Instructions != 100 {
		t.Errorf("executed %d instructions, want exactly 100", c.Trace.Instructions)
	}

	done := assemble(t, "main:\tret\n\tnop\n")
	c = New(Config{})
	c.Reset(done.Entry)
	done.LoadInto(c.Mem)
	halted, err = c.RunSteps(100)
	if err != nil || !halted {
		t.Errorf("RunSteps on a halting program = %v, %v; want halted, nil", halted, err)
	}
}

// TestInstructionLimitSentinel pins that fuel exhaustion is a wrapped
// fuel.ErrExhausted — the one sentinel every backend shares.
func TestInstructionLimitSentinel(t *testing.T) {
	prog := assemble(t, spinProg)
	c := New(Config{MaxInstructions: 500})
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	if err := c.Run(); !errors.Is(err, fuel.ErrExhausted) {
		t.Errorf("Run = %v, want wrapped fuel.ErrExhausted", err)
	}
}

// TestSetMaxInstructions re-arms the fuel budget on a reused machine,
// the way the pool's simulator cache does between jobs.
func TestSetMaxInstructions(t *testing.T) {
	prog := assemble(t, spinProg)
	c := New(Config{MaxInstructions: 100})
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	if err := c.Run(); !errors.Is(err, fuel.ErrExhausted) {
		t.Fatalf("first run = %v, want fuel exhaustion", err)
	}
	c.SetMaxInstructions(1000)
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	if err := c.Run(); !errors.Is(err, fuel.ErrExhausted) {
		t.Fatalf("second run = %v, want fuel exhaustion", err)
	}
	if c.Trace.Instructions != 1000 {
		t.Errorf("second run executed %d instructions, want the re-armed 1000", c.Trace.Instructions)
	}
	// Zero restores the default budget rather than an un-runnable zero.
	c.SetMaxInstructions(0)
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	if halted, err := c.RunSteps(5000); err != nil || halted {
		t.Errorf("after SetMaxInstructions(0): %v, %v; want 5000 free steps", halted, err)
	}
}

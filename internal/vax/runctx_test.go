package vax

import (
	"context"
	"errors"
	"testing"

	"risc1/internal/fuel"
)

// vaxSpin is an infinite guest loop for the cancellation and fuel tests.
const vaxSpin = `
start:	brb start
	halt
`

// TestRunContextCancellation mirrors the RISC-side test: an already
// cancelled context returns before any instruction executes; a mid-run
// cancellation stops on a quantum boundary with the machine resumable.
func TestRunContextCancellation(t *testing.T) {
	prog := assembleVax(t, vaxSpin)
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

// TestInstructionLimitSentinel pins fuel exhaustion as a wrapped
// fuel.ErrExhausted, and SetMaxInstructions as the re-arm the pool's
// simulator cache uses between jobs.
func TestInstructionLimitSentinel(t *testing.T) {
	prog := assembleVax(t, vaxSpin)
	c := New(Config{MaxInstructions: 100})
	c.Reset(prog.Entry)
	prog.LoadInto(c.Mem)
	if err := c.Run(); !errors.Is(err, fuel.ErrExhausted) {
		t.Fatalf("Run = %v, want wrapped fuel.ErrExhausted", err)
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
}

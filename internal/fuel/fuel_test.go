package fuel

import (
	"errors"
	"testing"

	"risc1/internal/trace"
)

// counter is a Stepper whose every step counts one instruction.
type counter struct{ tr *trace.Collector }

func (c counter) StepN(n uint64)        { c.tr.Instructions += n }
func (c counter) PC() uint32            { return 0x20 }
func (c counter) Halted() (bool, error) { return false, nil }

// TestDefaultLimit pins what a zero budget stands for, which a real
// machine could only reach after 2^32 instructions: the driver stops
// exactly there. The per-backend driver semantics live in machinetest.
func TestDefaultLimit(t *testing.T) {
	tr := trace.New()
	d := New("test", counter{tr}, tr, 0)
	tr.Instructions = DefaultLimit - 1
	if halted, err := d.RunSteps(1); halted || err != nil {
		t.Fatalf("last unit of the default budget: (%v, %v)", halted, err)
	}
	_, err := d.RunSteps(1)
	if want := "test: instruction limit exceeded: limit 4294967296 at pc 0x00000020"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	d.SetMaxInstructions(5)
	d.SetMaxInstructions(0)
	if _, err := d.RunSteps(1); !errors.Is(err, ErrExhausted) || tr.Instructions != DefaultLimit {
		t.Errorf("SetMaxInstructions(0): err %v at %d, want exhaustion at 2^32", err, tr.Instructions)
	}
}

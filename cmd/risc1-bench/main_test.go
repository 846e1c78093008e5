package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadOpt: the pipeline has levels 0 and 1 only, so any other -opt
// value is a usage error with exit status 2, refused before any table
// is built. The test re-runs its own binary as risc1-bench.
func TestBadOpt(t *testing.T) {
	if args := os.Getenv("RISC1_BENCH_ARGS"); args != "" {
		os.Args = append([]string{"risc1-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, msg string }{
		{"-opt 7 -table instr", "risc1-bench: opt must be 0 or 1, got 7\n"},
		{"-opt -1 -table size -scale small", "risc1-bench: opt must be 0 or 1, got -1\n"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadOpt$")
		cmd.Env = append(os.Environ(), "RISC1_BENCH_ARGS="+tc.args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2", tc.args, err)
		}
		if stderr.String() != tc.msg {
			t.Errorf("%s: stderr = %q, want %q", tc.args, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %d bytes of tables before refusing", tc.args, stdout.Len())
		}
	}
}

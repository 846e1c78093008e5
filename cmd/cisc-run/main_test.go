package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadOpt: the pipeline has levels 0 and 1 only, so any other -opt
// value is a usage error with exit status 2, as in risc1-run, instead of
// a run whose report records a level that does not exist. The test
// re-runs its own binary as cisc-run.
func TestBadOpt(t *testing.T) {
	if args := os.Getenv("CISC_RUN_ARGS"); args != "" {
		os.Args = append([]string{"cisc-run"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	src := filepath.Join(t.TempDir(), "t.c")
	if err := os.WriteFile(src, []byte("int result; int main() { result = 42; return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, msg string }{
		{"-opt 7", "cisc-run: opt must be 0 or 1, got 7\n"},
		{"-opt -1 -emit-ir", "cisc-run: opt must be 0 or 1, got -1\n"},
		{"-opt 2 -report -", "cisc-run: opt must be 0 or 1, got 2\n"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadOpt$")
		cmd.Env = append(os.Environ(), "CISC_RUN_ARGS="+tc.args+" "+src)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2", tc.args, err)
		}
		if stderr.String() != tc.msg {
			t.Errorf("%s: stderr = %q, want %q", tc.args, stderr.String(), tc.msg)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadWindows: a -windows value the register file cannot build is a
// usage error, reported with the register file's own message and exit
// status 2, not a panic. The test re-runs its own binary as risc1-run.
func TestBadWindows(t *testing.T) {
	if args := os.Getenv("RISC1_RUN_ARGS"); args != "" {
		os.Args = append([]string{"risc1-run"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	src := filepath.Join(t.TempDir(), "t.c")
	if err := os.WriteFile(src, []byte("int result; int main() { result = 42; return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ windows, msg string }{
		{"1", "risc1-run: regfile: need at least 2 windows, got 1\n"},
		{"5000", "risc1-run: regfile: at most 4095 windows, got 5000\n"},
		{"-3", "risc1-run: regfile: need at least 2 windows, got -3\n"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadWindows$")
		cmd.Env = append(os.Environ(), "RISC1_RUN_ARGS=-windows "+tc.windows+" "+src)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-windows %s: err = %v, want exit status 2", tc.windows, err)
		}
		if stderr.String() != tc.msg {
			t.Errorf("-windows %s: stderr = %q, want %q", tc.windows, stderr.String(), tc.msg)
		}
	}
}

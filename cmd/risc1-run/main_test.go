package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// usageCase is one command line that must be refused as a usage error:
// exit status 2 and exactly msg on stderr.
type usageCase struct{ args, msg string }

// checkUsageErrors re-runs the test binary as risc1-run (the test
// named name calls main when RISC1_RUN_ARGS is set) once per case,
// with the case's flags and a one-line MiniC program.
func checkUsageErrors(t *testing.T, name string, cases []usageCase) {
	if args := os.Getenv("RISC1_RUN_ARGS"); args != "" {
		os.Args = append([]string{"risc1-run"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	src := filepath.Join(t.TempDir(), "t.c")
	if err := os.WriteFile(src, []byte("int result; int main() { result = 42; return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$")
		cmd.Env = append(os.Environ(), "RISC1_RUN_ARGS="+tc.args+" "+src)
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

// TestBadWindows: a -windows value the register file cannot build is a
// usage error, reported with the register file's own message and exit
// status 2, not a panic.
func TestBadWindows(t *testing.T) {
	checkUsageErrors(t, "TestBadWindows", []usageCase{
		{"-windows 1", "risc1-run: regfile: need at least 2 windows, got 1\n"},
		{"-windows 5000", "risc1-run: regfile: at most 4095 windows, got 5000\n"},
		{"-windows -3", "risc1-run: regfile: need at least 2 windows, got -3\n"},
	})
}

// TestBadOpt: the pipeline has levels 0 and 1 only, so any other -opt
// value is a usage error, as risc1-serve refuses it, instead of a run
// whose report records a level that does not exist.
func TestBadOpt(t *testing.T) {
	checkUsageErrors(t, "TestBadOpt", []usageCase{
		{"-opt 7", "risc1-run: opt must be 0 or 1, got 7\n"},
		{"-opt -1", "risc1-run: opt must be 0 or 1, got -1\n"},
		{"-opt 2 -report -", "risc1-run: opt must be 0 or 1, got 2\n"},
	})
}

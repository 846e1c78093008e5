package cc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"risc1/internal/cc/ir"
)

var updateIR = flag.Bool("update-ir", false, "rewrite the golden IR and assembly dumps")

// goldenCorpus returns the golden sources, each without its .c suffix.
func goldenCorpus(t *testing.T) []string {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("testdata", "ir", "*.c"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no golden corpus: %v", err)
	}
	for i, src := range srcs {
		srcs[i] = strings.TrimSuffix(src, ".c")
	}
	return srcs
}

// checkGolden compares got against the file at path, rewriting the
// file first under -update-ir.
func checkGolden(t *testing.T, path, what string, got []byte) {
	t.Helper()
	if *updateIR {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-ir)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the golden file %s "+
			"(regenerate with -update-ir if deliberate)\ngot:\n%s\nwant:\n%s", what, path, got, want)
	}
}

// TestGoldenIRDumps pins the -emit-ir output for a small corpus at both
// optimization levels. The dump format is part of the tool surface
// (cmd flags print it), so changes must be deliberate: regenerate with
//
//	go test ./internal/cc -run 'TestGolden' -update-ir
func TestGoldenIRDumps(t *testing.T) {
	for _, base := range goldenCorpus(t) {
		code, err := os.ReadFile(base + ".c")
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range []int{0, 1} {
			prog, _, err := Frontend(string(code), lvl)
			if err != nil {
				t.Fatalf("%s -O%d: %v", base, lvl, err)
			}
			checkGolden(t, fmt.Sprintf("%s.O%d.ir", base, lvl),
				fmt.Sprintf("%s -O%d: IR dump", base, lvl), []byte(prog.Dump()))
		}
	}
}

// TestGoldenAsm pins the assembly text every code generator emits for
// the same corpus at both optimization levels, so a change to the
// shared generator core shows up as a diff against these files.
func TestGoldenAsm(t *testing.T) {
	gens := []struct {
		name string
		gen  func(*ir.Program) (string, error)
	}{{"risc1", GenRISC}, {"cisc", GenVAX}, {"rv32", GenRV32}}
	for _, base := range goldenCorpus(t) {
		code, err := os.ReadFile(base + ".c")
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range []int{0, 1} {
			for _, g := range gens {
				prog, _, err := Frontend(string(code), lvl)
				if err != nil {
					t.Fatalf("%s -O%d: %v", base, lvl, err)
				}
				text, err := g.gen(prog)
				if err != nil {
					t.Fatalf("%s -O%d %s: %v", base, lvl, g.name, err)
				}
				checkGolden(t, fmt.Sprintf("%s.O%d.%s.s", base, lvl, g.name),
					fmt.Sprintf("%s -O%d %s: assembly", base, lvl, g.name), []byte(text))
			}
		}
	}
}

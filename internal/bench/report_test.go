package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"risc1/internal/machine"
	"risc1/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the report golden file")

// goldenWorkload is a fixed small run the golden file pins. Fib at a
// fixed input is deterministic and exercises windows, traps and both
// instruction classes.
func goldenWorkload(t *testing.T) Workload {
	t.Helper()
	for _, w := range Suite(Small()) {
		if w.Name == "fib" {
			return w
		}
	}
	t.Fatal("no fib workload in the small suite")
	return Workload{}
}

// TestReportGolden pins the run-report JSON shape. A diff here means the
// schema changed: bump obs.ReportVersion, update DESIGN.md section 8,
// and regenerate with go test ./internal/bench -run TestReportGolden -update.
func TestReportGolden(t *testing.T) {
	r := run(t, riscBackend, goldenWorkload(t), machine.Options{DelaySlots: true, Opt: 1})
	got, err := r.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON diverged from the golden file; if the schema "+
			"deliberately changed, bump obs.ReportVersion and rerun with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportDeterminism is the acceptance criterion: two identical runs
// emit byte-identical reports.
func TestReportDeterminism(t *testing.T) {
	w := goldenWorkload(t)
	a := run(t, riscBackend, w, machine.Options{DelaySlots: true, Opt: 1})
	b := run(t, riscBackend, w, machine.Options{DelaySlots: true, Opt: 1})
	ja, err := a.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("identical runs produced different report bytes")
	}
}

// TestReportMatchesCollector asserts the report's sections agree with
// each other: the tables read every number from the report.
func TestReportMatchesCollector(t *testing.T) {
	r := run(t, riscBackend, goldenWorkload(t), machine.Options{DelaySlots: true, Opt: 1}).Report
	if r.Totals.BaseCycles+r.Totals.TrapCycles != r.Totals.Cycles {
		t.Errorf("base (%d) + trap (%d) != total (%d)",
			r.Totals.BaseCycles, r.Totals.TrapCycles, r.Totals.Cycles)
	}
	if r.Memory.Accesses != r.Memory.Reads+r.Memory.Writes {
		t.Errorf("report memory section %+v: accesses != reads + writes", r.Memory)
	}
	var winSum uint64
	for _, m := range r.Mix {
		winSum += m.Count
	}
	if winSum != r.Totals.Instructions {
		t.Errorf("mix counts sum to %d, want %d", winSum, r.Totals.Instructions)
	}
}

// TestVaxReportMatchesCollector does the same for the baseline.
func TestVaxReportMatchesCollector(t *testing.T) {
	r := run(t, ciscBackend, goldenWorkload(t), machine.Options{Opt: 1}).Report
	if r.Machine != "cisc" {
		t.Errorf("machine = %q", r.Machine)
	}
	var mixSum uint64
	for _, m := range r.Mix {
		mixSum += m.Count
	}
	if mixSum != r.Totals.Instructions || r.Totals.BaseCycles != r.Totals.Cycles {
		t.Errorf("report totals %+v disagree with mix sum %d", r.Totals, mixSum)
	}
	if r.Cisc == nil || r.Cisc.Calls == 0 {
		t.Errorf("cisc section missing or empty: %+v", r.Cisc)
	}
}

// TestBenchReportShape checks the suite-level wrapper: four runs per
// workload, valid JSON, stable schema header.
func TestBenchReportShape(t *testing.T) {
	c, err := Compare(goldenWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	br := obs.NewBenchReport("small", Reports([]Comparison{c}))
	if len(br.Runs) != 4 {
		t.Fatalf("runs = %d, want risc, risc-nop, vax, rv32", len(br.Runs))
	}
	if br.Runs[0].Machine != "risc1" || !br.Runs[0].Config.Optimized {
		t.Errorf("run 0 = %s optimized=%v, want optimized risc1", br.Runs[0].Machine, br.Runs[0].Config.Optimized)
	}
	if br.Runs[1].Machine != "risc1" || br.Runs[1].Config.Optimized {
		t.Errorf("run 1 should be the unoptimized risc run")
	}
	if br.Runs[2].Machine != "cisc" {
		t.Errorf("run 2 = %s, want cisc", br.Runs[2].Machine)
	}
	if br.Runs[3].Machine != "rv32" {
		t.Errorf("run 3 = %s, want rv32", br.Runs[3].Machine)
	}
	b, err := br.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("bench report invalid JSON: %v", err)
	}
	if parsed["schema"] != "risc1.bench-report" {
		t.Errorf("schema = %v", parsed["schema"])
	}
}

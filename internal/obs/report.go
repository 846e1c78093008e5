package obs

import "encoding/json"

// The run report is the machine-readable counterpart of the simulators'
// stdout summaries: every number the paper's tables draw on — dynamic
// instruction mix, cycle breakdown, register-window and memory traffic,
// optionally a profile — in one versioned JSON document. Reports are
// deterministic: identical runs marshal to identical bytes (no wall
// clock, no map iteration), so they diff cleanly and can be committed
// as golden files.

// Schema identifiers and versions. Bump the version on any
// field-breaking change; the golden-file test pins the current shape.
const (
	ReportSchema  = "risc1.run-report"
	ReportVersion = 1

	BenchReportSchema  = "risc1.bench-report"
	BenchReportVersion = 1
)

// Report describes one simulated run of one workload on one machine.
type Report struct {
	Schema   string `json:"schema"`
	Version  int    `json:"version"`
	Machine  string `json:"machine"` // registry name: "risc1", "cisc", "rv32", ...
	Workload string `json:"workload,omitempty"`

	Config  ReportConfig `json:"config"`
	Totals  Totals       `json:"totals"`
	Mix     []MixEntry   `json:"mix"`
	Ops     []MixEntry   `json:"ops,omitempty"`
	Windows *Windows     `json:"windows,omitempty"` // RISC only
	Control *Control     `json:"control,omitempty"` // RISC only
	Cisc    *Cisc        `json:"cisc,omitempty"`    // baseline only
	Rv32    *Rv32        `json:"rv32,omitempty"`    // modern-RISC machine only
	Memory  Memory       `json:"memory"`
	ICache  *ICache      `json:"icache,omitempty"` // host machinery, not simulated state
	Profile *Profile     `json:"profile,omitempty"`
	Exec    *ExecStat    `json:"exec,omitempty"` // batch-engine job accounting
}

// ReportConfig records the simulated machine's organization and the
// tool-chain settings the workload was compiled with.
type ReportConfig struct {
	Windows   int     `json:"windows,omitempty"`
	NoWindows bool    `json:"noWindows,omitempty"`
	MemSize   int     `json:"memSize"`
	CycleNS   float64 `json:"cycleNS"`
	Optimized bool    `json:"optimized,omitempty"` // delay slots filled by the assembler
	// OptLevel is the compiler's machine-independent optimization
	// level (-O0 or -O1); Passes counts the rewrites each IR pass
	// performed. Both are additive: absent for hand-written assembly.
	OptLevel int        `json:"optLevel,omitempty"`
	Passes   []PassStat `json:"passes,omitempty"`
}

// PassStat is one optimization pass's rewrite count. It mirrors the
// compiler's own statistic type so reports don't depend on compiler
// internals.
type PassStat struct {
	Name     string `json:"name"`
	Rewrites int    `json:"rewrites"`
}

// Totals is the cycle and instruction accounting.
type Totals struct {
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	BaseCycles   uint64  `json:"baseCycles"` // Cycles minus TrapCycles
	TrapCycles   uint64  `json:"trapCycles"` // window overflow/underflow + interrupt entry
	Micros       float64 `json:"micros"`     // simulated time at the machine's cycle length
	CPI          float64 `json:"cpi"`
}

// MixEntry is one row of a frequency table (class mix or opcode counts).
type MixEntry struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Frac  float64 `json:"frac"`
}

// Windows is the register-window traffic of a RISC run.
type Windows struct {
	Calls       uint64   `json:"calls"`
	Returns     uint64   `json:"returns"`
	Overflows   uint64   `json:"overflows"`
	Underflows  uint64   `json:"underflows"`
	MaxDepth    int      `json:"maxDepth"`
	SpillWords  uint64   `json:"spillWords"`
	RefillWords uint64   `json:"refillWords"`
	DepthHist   []uint64 `json:"depthHist,omitempty"`
}

// Control is the RISC jump/delay-slot accounting.
type Control struct {
	JumpsTaken    uint64 `json:"jumpsTaken"`
	JumpsUntaken  uint64 `json:"jumpsUntaken"`
	DelaySlotNops uint64 `json:"delaySlotNops"`
}

// Cisc is the baseline's call and branch accounting.
type Cisc struct {
	Calls           uint64 `json:"calls"`
	Returns         uint64 `json:"returns"`
	CallCycles      uint64 `json:"callCycles"`
	CallMemWords    uint64 `json:"callMemWords"`
	BranchesTaken   uint64 `json:"branchesTaken"`
	BranchesUntaken uint64 `json:"branchesUntaken"`
	InstStreamBytes uint64 `json:"instStreamBytes"`
}

// Rv32 is the modern delay-slot-free RISC machine's call and branch
// accounting. Branch bubbles are costBranchTaken × BranchesTaken by
// construction, so the section exposes the raw counts.
type Rv32 struct {
	Calls           uint64 `json:"calls"`
	Returns         uint64 `json:"returns"`
	BranchesTaken   uint64 `json:"branchesTaken"`
	BranchesUntaken uint64 `json:"branchesUntaken"`
	MulDivOps       uint64 `json:"mulDivOps"`
}

// Memory is the data-memory traffic (instruction fetch excluded, as the
// paper separates the streams).
type Memory struct {
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	BytesRead    uint64 `json:"bytesRead"`
	BytesWritten uint64 `json:"bytesWritten"`
	Accesses     uint64 `json:"accesses"`
}

// ICache reports the host-side predecoded instruction cache. It never
// affects simulated results; it is included so host-speed investigations
// have a per-run source of truth.
type ICache struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Fills         uint64 `json:"fills"`
	Invalidations uint64 `json:"invalidations"`
}

// Profile is the profiler's top-N summary embedded in a report.
type Profile struct {
	TotalCycles  uint64    `json:"totalCycles"`
	TrapCycles   uint64    `json:"trapCycles"`
	TopFunctions []FuncRow `json:"topFunctions"`
	HotPCs       []PCRow   `json:"hotPCs"`
}

// ProfileSection summarizes a profiler into a report section: the n
// hottest functions and PCs (0 means 10). symtab and disasm may be nil.
func ProfileSection(p *Profiler, symtab *SymTab, disasm func(pc uint32) (string, bool), n int) *Profile {
	if p == nil {
		return nil
	}
	p.Finalize()
	if n <= 0 {
		n = 10
	}
	var namer func(pc uint32) string
	if symtab != nil {
		namer = symtab.Namer()
	}
	funcs := p.Functions(namer)
	if len(funcs) > n {
		funcs = funcs[:n]
	}
	hot := p.HotPCs(n)
	if disasm != nil {
		for i := range hot {
			if t, ok := disasm(hot[i].PC); ok {
				hot[i].Text = t
			}
		}
	}
	return &Profile{
		TotalCycles:  p.TotalCycles(),
		TrapCycles:   p.TrapCycles(),
		TopFunctions: funcs,
		HotPCs:       hot,
	}
}

// JSON marshals the report with stable two-space indentation and a
// trailing newline, exactly as json.MarshalIndent lays it out. The
// output is byte-identical for identical runs.
func (r *Report) JSON() ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, 4096), finite: true}
	w.report(r)
	if w.finite {
		return append(w.b, '\n'), nil
	}
	// Let encoding/json report the unsupported value.
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// BenchReport wraps the whole suite's reports — the machine-readable
// form of risc1-bench's tables.
type BenchReport struct {
	Schema  string   `json:"schema"`
	Version int      `json:"version"`
	Scale   string   `json:"scale"`
	Runs    []Report `json:"runs"`
}

// NewBenchReport stamps schema and version.
func NewBenchReport(scale string, runs []Report) BenchReport {
	return BenchReport{Schema: BenchReportSchema, Version: BenchReportVersion, Scale: scale, Runs: runs}
}

// JSON marshals the bench report like Report.JSON.
func (r *BenchReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

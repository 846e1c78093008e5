package machine

import (
	"fmt"
	"sort"
	"strings"

	"risc1/internal/obs"
)

// Backend describes one registered machine: its names, its compiler
// entry point, and its simulator factory. A Backend is registered once
// at init time and immutable afterwards.
type Backend struct {
	// Name is the canonical registry name, stamped into run reports
	// and cache keys.
	Name string
	// Aliases are accepted spellings beyond Name (lookup only — keys
	// and reports always use Name).
	Aliases []string
	// Description is one line for machine listings (GET /v1/machines,
	// CLI help).
	Description string
	// CycleNS is the simulated cycle time in nanoseconds — the
	// same-technology scaling the paper's time comparisons rest on.
	CycleNS float64
	// Compile lowers MiniC source through the shared front end to an
	// assembled program for this machine, returning the program, the
	// generated assembly listing, and the optimization pass counts.
	Compile func(src string, o Options) (Program, string, []obs.PassStat, error)
	// New builds a fresh machine configured by o.
	New func(o Options) Machine
	// Normalize zeroes the Options fields this backend ignores, so
	// requests differing only in irrelevant knobs share cache entries
	// and report configs. It must be idempotent.
	Normalize func(o Options) Options
	// Scrub, when non-nil, removes report sections that describe host
	// machinery rather than the simulated machine (counters that
	// depend on worker history, not on the job). Applied by the
	// execution layer just after BuildReport.
	Scrub func(rep *obs.Report)
}

// ScrubReport applies the backend's report scrub hook, if any.
func (b *Backend) ScrubReport(rep *obs.Report) {
	if b.Scrub != nil {
		b.Scrub(rep)
	}
}

// DefaultName is the backend an empty machine name resolves to — the
// paper's subject machine.
const DefaultName = "risc1"

var (
	backends []*Backend // registration order
	byName   = map[string]*Backend{}
)

// Register adds a backend to the registry under its canonical name and
// aliases. It panics on a duplicate or empty name — registration runs
// at init time, where a clash is a build bug.
func Register(b *Backend) {
	if b.Name == "" {
		panic("machine: Register with empty name")
	}
	for _, name := range append([]string{b.Name}, b.Aliases...) {
		if _, dup := byName[name]; dup {
			panic(fmt.Sprintf("machine: duplicate registration of %q", name))
		}
		byName[name] = b
	}
	backends = append(backends, b)
}

// Lookup resolves a machine name (canonical or alias, case-insensitive;
// empty means DefaultName) to its backend.
func Lookup(name string) (*Backend, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		name = DefaultName
	}
	b, ok := byName[name]
	return b, ok
}

// Canonical resolves a machine name to its canonical registry spelling,
// or an error naming the known machines — the one place "unknown
// machine" messages come from.
func Canonical(name string) (string, error) {
	b, ok := Lookup(name)
	if !ok {
		return "", fmt.Errorf("machine: unknown machine %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return b.Name, nil
}

// Machines lists the registered backends in registration order.
func Machines() []*Backend {
	out := make([]*Backend, len(backends))
	copy(out, backends)
	return out
}

// Names lists the canonical backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(backends))
	for _, b := range backends {
		out = append(out, b.Name)
	}
	sort.Strings(out)
	return out
}

package obs

import (
	"encoding/json"
	"math"
	"strconv"
)

// Report.JSON runs on every simulated request of the server (it is the
// one encode of the cached result), so it writes the report directly
// instead of going through encoding/json's reflection and indentation
// passes. The output is byte-for-byte what json.MarshalIndent(r, "",
// "  ") produces; the tests compare the two on filled, empty and random
// reports.

// jsonWriter appends indented JSON the way json.MarshalIndent lays it
// out: two-space indentation, "key": value, and empty objects and
// arrays as {} and [].
type jsonWriter struct {
	b      []byte
	depth  int
	empty  bool // nothing written yet inside the innermost object or array
	finite bool // false once a NaN or infinity was seen; encoding/json rejects those
}

// newlines holds a newline and the indentation of every depth a report
// reaches.
const newlines = "\n            "

func (w *jsonWriter) newline() {
	w.b = append(w.b, newlines[:1+2*w.depth]...)
}

// next starts a member or element.
func (w *jsonWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

func (w *jsonWriter) uint(k string, v uint64) {
	w.key(k)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *jsonWriter) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *jsonWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

// float formats like encoding/json: the shortest 'f' form, switching to
// 'e' below 1e-6 and from 1e21 on, with a one-digit negative exponent.
func (w *jsonWriter) float(k string, v float64) {
	w.key(k)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.finite = false
		return
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

func (w *jsonWriter) str(k, v string) {
	w.key(k)
	w.b = AppendJSONString(w.b, v)
}

// AppendJSONString appends s as a JSON string the way encoding/json
// writes it. Plain printable ASCII is copied as is; anything that needs
// escaping (quotes, backslashes, control bytes, the HTML-sensitive <, >
// and &, and all non-ASCII) is left to encoding/json.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func (w *jsonWriter) report(r *Report) {
	w.open('{')
	w.str("schema", r.Schema)
	w.int("version", r.Version)
	w.str("machine", r.Machine)
	if r.Workload != "" {
		w.str("workload", r.Workload)
	}
	w.key("config")
	w.config(&r.Config)
	w.key("totals")
	w.open('{')
	w.uint("instructions", r.Totals.Instructions)
	w.uint("cycles", r.Totals.Cycles)
	w.uint("baseCycles", r.Totals.BaseCycles)
	w.uint("trapCycles", r.Totals.TrapCycles)
	w.float("micros", r.Totals.Micros)
	w.float("cpi", r.Totals.CPI)
	w.close('}')
	w.key("mix")
	w.mix(r.Mix)
	if len(r.Ops) > 0 {
		w.key("ops")
		w.mix(r.Ops)
	}
	if s := r.Windows; s != nil {
		w.key("windows")
		w.open('{')
		w.uint("calls", s.Calls)
		w.uint("returns", s.Returns)
		w.uint("overflows", s.Overflows)
		w.uint("underflows", s.Underflows)
		w.int("maxDepth", s.MaxDepth)
		w.uint("spillWords", s.SpillWords)
		w.uint("refillWords", s.RefillWords)
		if len(s.DepthHist) > 0 {
			w.key("depthHist")
			w.open('[')
			for _, n := range s.DepthHist {
				w.next()
				w.b = strconv.AppendUint(w.b, n, 10)
			}
			w.close(']')
		}
		w.close('}')
	}
	if s := r.Control; s != nil {
		w.key("control")
		w.open('{')
		w.uint("jumpsTaken", s.JumpsTaken)
		w.uint("jumpsUntaken", s.JumpsUntaken)
		w.uint("delaySlotNops", s.DelaySlotNops)
		w.close('}')
	}
	if s := r.Cisc; s != nil {
		w.key("cisc")
		w.open('{')
		w.uint("calls", s.Calls)
		w.uint("returns", s.Returns)
		w.uint("callCycles", s.CallCycles)
		w.uint("callMemWords", s.CallMemWords)
		w.uint("branchesTaken", s.BranchesTaken)
		w.uint("branchesUntaken", s.BranchesUntaken)
		w.uint("instStreamBytes", s.InstStreamBytes)
		w.close('}')
	}
	if s := r.Rv32; s != nil {
		w.key("rv32")
		w.open('{')
		w.uint("calls", s.Calls)
		w.uint("returns", s.Returns)
		w.uint("branchesTaken", s.BranchesTaken)
		w.uint("branchesUntaken", s.BranchesUntaken)
		w.uint("mulDivOps", s.MulDivOps)
		w.close('}')
	}
	w.key("memory")
	w.open('{')
	w.uint("reads", r.Memory.Reads)
	w.uint("writes", r.Memory.Writes)
	w.uint("bytesRead", r.Memory.BytesRead)
	w.uint("bytesWritten", r.Memory.BytesWritten)
	w.uint("accesses", r.Memory.Accesses)
	w.close('}')
	if s := r.ICache; s != nil {
		w.key("icache")
		w.open('{')
		w.uint("hits", s.Hits)
		w.uint("misses", s.Misses)
		w.uint("fills", s.Fills)
		w.uint("invalidations", s.Invalidations)
		w.close('}')
	}
	if r.Profile != nil {
		w.key("profile")
		w.profile(r.Profile)
	}
	if s := r.Exec; s != nil {
		w.key("exec")
		w.open('{')
		w.int("attempts", s.Attempts)
		if s.FuelLimit != 0 {
			w.uint("fuelLimit", s.FuelLimit)
		}
		w.close('}')
	}
	w.close('}')
}

func (w *jsonWriter) config(c *ReportConfig) {
	w.open('{')
	if c.Windows != 0 {
		w.int("windows", c.Windows)
	}
	if c.NoWindows {
		w.bool("noWindows", c.NoWindows)
	}
	w.int("memSize", c.MemSize)
	w.float("cycleNS", c.CycleNS)
	if c.Optimized {
		w.bool("optimized", c.Optimized)
	}
	if c.OptLevel != 0 {
		w.int("optLevel", c.OptLevel)
	}
	if len(c.Passes) > 0 {
		w.key("passes")
		w.open('[')
		for _, p := range c.Passes {
			w.next()
			w.open('{')
			w.str("name", p.Name)
			w.int("rewrites", p.Rewrites)
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
}

// mix writes a frequency table; nil is null, as encoding/json has it.
func (w *jsonWriter) mix(rows []MixEntry) {
	if rows == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, e := range rows {
		w.next()
		w.open('{')
		w.str("name", e.Name)
		w.uint("count", e.Count)
		w.float("frac", e.Frac)
		w.close('}')
	}
	w.close(']')
}

func (w *jsonWriter) profile(p *Profile) {
	w.open('{')
	w.uint("totalCycles", p.TotalCycles)
	w.uint("trapCycles", p.TrapCycles)
	w.key("topFunctions")
	if p.TopFunctions == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for _, f := range p.TopFunctions {
			w.next()
			w.open('{')
			w.str("name", f.Name)
			w.str("addr", f.AddrHex)
			w.uint("calls", f.Calls)
			w.uint("flatCycles", f.Flat)
			w.uint("cumCycles", f.Cum)
			w.float("flatFrac", f.FlatFrac)
			w.float("cumFrac", f.CumFrac)
			w.close('}')
		}
		w.close(']')
	}
	w.key("hotPCs")
	if p.HotPCs == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for _, h := range p.HotPCs {
			w.next()
			w.open('{')
			w.str("pc", h.PCHex)
			w.uint("cycles", h.Cycles)
			w.uint("count", h.Count)
			if h.Text != "" {
				w.str("text", h.Text)
			}
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
}

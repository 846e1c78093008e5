// Package regfile implements the overlapping register windows of RISC I.
//
// The register file is a set of global registers plus a circular buffer of
// windows. Each procedure sees 32 registers: the globals (r0..r9, with r0
// hardwired to zero), six HIGH registers (r26..r31) holding parameters
// passed *to* it, ten LOCAL registers (r16..r25), and six LOW registers
// (r10..r15) for parameters it passes *down*. A CALL advances the current
// window pointer (CWP); the caller's LOW registers physically are the
// callee's HIGH registers, so parameter passing moves no data at all.
//
// With W windows at most W-1 activations can be resident at once: the
// youngest activation's LOW block physically aliases the HIGH block of the
// window two past the oldest, so a W-th activation would clobber live
// registers. A call that would exceed the limit raises a window overflow
// and the processor spills the oldest activation's private span (its HIGH
// block plus locals, 16 registers) to a memory stack; a return to a
// spilled activation raises an underflow and refills it. The package
// tracks both events so the paper's overflow-rate experiments can be
// regenerated.
package regfile

import "fmt"

// Config fixes the geometry of the register file. The visible layout
// (which r-numbers are global/low/local/high) is fixed by the ISA; Config
// chooses only how many physical windows back it.
type Config struct {
	// Windows is the number of register windows in the circular buffer.
	// Must be at least 2 (W windows support W-1 resident activations).
	Windows int
}

// DefaultConfig is the organization described in the ISCA 1981 paper:
// eight windows, i.e. 10 + 8*16 = 138 physical registers.
var DefaultConfig = Config{Windows: 8}

// GoldConfig approximates the fabricated RISC I "Gold" chip, which shipped
// with fewer windows than the paper's description (78 physical registers
// on silicon). With the paper's 16-registers-per-window overlap scheme the
// closest realizable configuration is four windows (10 + 4*16 = 74).
var GoldConfig = Config{Windows: 4}

// Geometry constants fixed by the instruction set's visible layout.
const (
	numGlobals    = 10 // r0..r9
	overlap       = 6  // r10..r15 shared with callee / r26..r31 with caller
	numLocals     = 10 // r16..r25
	regsPerWindow = numLocals + overlap
	visibleRegs   = 32
	// SpillRegs is the number of registers saved or restored by one
	// window overflow or underflow: one activation's private span (its
	// HIGH overlap block plus its locals).
	SpillRegs = regsPerWindow
	// maxWindows keeps every physical index within the uint16 window
	// maps.
	maxWindows = (1<<16 - numGlobals) / regsPerWindow
)

// PhysicalRegs returns the total number of physical registers the
// configuration implies — the number the paper's machine-characteristics
// table reports.
func (c Config) PhysicalRegs() int { return numGlobals + c.Windows*regsPerWindow }

// MaxResident returns how many activations fit on chip simultaneously.
func (c Config) MaxResident() int { return c.Windows - 1 }

// Validate reports why New would refuse the configuration, or nil.
func (c Config) Validate() error {
	if c.Windows < 2 {
		return fmt.Errorf("regfile: need at least 2 windows, got %d", c.Windows)
	}
	if c.Windows > maxWindows {
		return fmt.Errorf("regfile: at most %d windows, got %d", maxWindows, c.Windows)
	}
	return nil
}

// File is the physical register file plus the window bookkeeping.
type File struct {
	cfg Config
	// phys holds every physical register: the globals at 0..9 (phys[0]
	// is r0, never written), then the Windows*regsPerWindow circular
	// window buffer.
	phys []uint32
	// maps[w][r] is the phys index visible register r names in window
	// w, built once in New; cur is maps[cwp], so a register access is a
	// table lookup with no window arithmetic.
	maps     [][visibleRegs]uint16
	cur      *[visibleRegs]uint16
	cwp      int // window of the current (youngest) activation
	oldest   int // window of the oldest resident activation
	resident int // number of resident activations, 1..Windows-1
	depth    int // call depth relative to reset, for statistics
	maxDepth int
	// spill is the span an overflowing Call hands back, owned here so
	// an overflow allocates nothing; an array, so Clone copies it.
	spill [SpillRegs]uint32

	// Stats accumulates window events for the paper's experiments.
	Stats Stats
}

// Stats counts window traffic.
type Stats struct {
	Calls      uint64 // window-advancing calls
	Returns    uint64 // window-retreating returns
	Overflows  uint64 // calls that required a spill
	Underflows uint64 // returns that required a refill
}

// New creates a register file. It panics on an invalid configuration,
// which is a programming error, not runtime input.
func New(cfg Config) *File {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &File{
		cfg:  cfg,
		phys: make([]uint32, cfg.PhysicalRegs()),
		maps: make([][visibleRegs]uint16, cfg.Windows),
	}
	for w := range f.maps {
		for r := range f.maps[w] {
			f.maps[w][r] = uint16(f.index(w, uint8(r)))
		}
	}
	f.Reset()
	return f
}

// Config returns the geometry the file was built with.
func (f *File) Config() Config { return f.cfg }

// CWP returns the current window pointer (0..Windows-1).
func (f *File) CWP() int { return f.cwp }

// Resident returns the number of on-chip activations.
func (f *File) Resident() int { return f.resident }

// Depth returns the call depth relative to reset (can go negative if the
// program returns above its entry activation).
func (f *File) Depth() int { return f.depth }

// MaxDepth returns the deepest call depth observed since Reset.
func (f *File) MaxDepth() int { return f.maxDepth }

// index maps a visible register number in window w to its physical
// slot: globals first, then the circular buffer. It builds the window
// maps; accesses go through them.
//
// Window w's HIGH block and locals live at w*16..w*16+15 of the buffer;
// its LOW block is window (w+1)'s HIGH block — that aliasing is the
// whole point.
func (f *File) index(w int, r uint8) int {
	switch {
	case r < numGlobals:
		return int(r)
	case r < 16: // LOW: shared with callee's HIGH
		next := (w + 1) % f.cfg.Windows
		return f.window(next) + int(r-10)
	case r < 26: // LOCAL
		return f.window(w) + overlap + int(r-16)
	default: // HIGH: shared with caller's LOW
		return f.window(w) + int(r-26)
	}
}

// window is the phys index of window w's private span (HIGH block,
// then locals).
func (f *File) window(w int) int { return numGlobals + w*regsPerWindow }

// Get reads visible register r in the current window. r0 always reads 0.
func (f *File) Get(r uint8) uint32 {
	if r >= visibleRegs {
		panic(badRegister(r))
	}
	return f.phys[f.cur[r]]
}

// Set writes visible register r in the current window. Writes to r0 are
// discarded, preserving the hardwired zero.
func (f *File) Set(r uint8, v uint32) {
	if r >= visibleRegs {
		panic(badRegister(r))
	}
	if r != 0 {
		f.phys[f.cur[r]] = v
	}
}

// badRegister is the panic value of an access past r31 (a simulator
// bug, not guest input); a plain conversion keeps Get and Set
// inlinable.
type badRegister uint8

func (r badRegister) Error() string {
	return fmt.Sprintf("regfile: register r%d out of range", uint8(r))
}

// setCWP moves the current window pointer and its register map.
func (f *File) setCWP(w int) {
	f.cwp = w
	f.cur = &f.maps[w]
}

// Call advances the window for a CALL. If the advance overflows, it spills
// the oldest resident activation internally and returns its 16-register
// private span (HIGH block then locals) so the CPU's trap sequence can
// write it to the register-save stack in memory; otherwise it returns nil.
// The span is a buffer the File owns, valid until the next Call.
func (f *File) Call() (spilled []uint32) {
	f.Stats.Calls++
	f.depth++
	if f.depth > f.maxDepth {
		f.maxDepth = f.depth
	}
	f.setCWP((f.cwp + 1) % f.cfg.Windows)
	if f.resident < f.cfg.MaxResident() {
		f.resident++
		return nil
	}
	// Overflow: evict the oldest activation's window span.
	f.Stats.Overflows++
	w := f.oldest
	copy(f.spill[:], f.phys[f.window(w):f.window(w+1)])
	f.oldest = (f.oldest + 1) % f.cfg.Windows
	return f.spill[:]
}

// Return retreats the window for a RET. It reports whether the retreat
// underflowed — i.e. the parent activation had been spilled — in which
// case the CPU must read the parent's 16-register span from the save
// stack and pass it to Refill before the parent's registers are used.
func (f *File) Return() (underflow bool) {
	f.Stats.Returns++
	f.depth--
	f.setCWP(mod(f.cwp-1, f.cfg.Windows))
	if f.resident > 1 {
		f.resident--
		return false
	}
	// Underflow: the new current window's contents are stale.
	f.Stats.Underflows++
	f.oldest = f.cwp
	return true
}

// Refill restores the current window's private span after an underflowing
// Return. It panics if vals has the wrong length (CPU bug, not input).
func (f *File) Refill(vals []uint32) {
	if len(vals) != regsPerWindow {
		panic(fmt.Sprintf("regfile: refill with %d values, want %d", len(vals), regsPerWindow))
	}
	copy(f.phys[f.window(f.cwp):f.window(f.cwp+1)], vals)
}

// Clone returns a deep copy of the register file — every physical
// register, the window pointers, and the statistics. Machine snapshots
// and forks use it; the clone shares nothing mutable with the
// original (the window maps are immutable).
func (f *File) Clone() *File {
	g := *f
	g.phys = append([]uint32(nil), f.phys...)
	g.setCWP(f.cwp)
	return &g
}

// CopyFrom overwrites this file's state with src's, in place, so
// holders of the *File pointer observe the restored state. It panics if
// the geometries differ (a programming error, not runtime input).
func (f *File) CopyFrom(src *File) {
	if f.cfg != src.cfg {
		panic(fmt.Sprintf("regfile: copy between geometries %+v and %+v", src.cfg, f.cfg))
	}
	copy(f.phys, src.phys)
	f.setCWP(src.cwp)
	f.oldest = src.oldest
	f.resident = src.resident
	f.depth = src.depth
	f.maxDepth = src.maxDepth
	f.Stats = src.Stats
}

// Reset restores the post-power-on state: all registers zero, CWP at
// window zero, one resident activation, statistics cleared.
func (f *File) Reset() {
	clear(f.phys)
	f.setCWP(0)
	f.oldest = 0
	f.resident = 1
	f.depth = 0
	f.maxDepth = 0
	f.Stats = Stats{}
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

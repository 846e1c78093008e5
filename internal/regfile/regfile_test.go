package regfile

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPhysicalRegs(t *testing.T) {
	if got := DefaultConfig.PhysicalRegs(); got != 138 {
		t.Errorf("default (8-window) file: %d physical registers, want 138", got)
	}
	if got := GoldConfig.PhysicalRegs(); got != 74 {
		t.Errorf("gold (4-window) file: %d physical registers, want 74", got)
	}
	if got := DefaultConfig.MaxResident(); got != 7 {
		t.Errorf("8 windows should hold 7 activations, got %d", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 1 window should panic")
		}
	}()
	New(Config{Windows: 1})
}

// TestWindowLimit pins the largest file the uint16 window maps can
// address: maxWindows is accepted and works at its top window, one more
// is rejected with a message naming the limit.
func TestWindowLimit(t *testing.T) {
	f := New(Config{Windows: maxWindows})
	if got := f.cfg.PhysicalRegs(); got > 1<<16 {
		t.Fatalf("%d windows need %d physical registers, more than uint16 indexes", maxWindows, got)
	}
	for i := 0; i < maxWindows-1; i++ {
		f.Call()
	}
	f.Set(16, 0xabcd)
	if got := f.Get(16); got != 0xabcd {
		t.Errorf("top window r16 = %#x, want 0xabcd", got)
	}

	defer func() {
		want := fmt.Sprintf("regfile: at most %d windows, got %d", maxWindows, maxWindows+1)
		err, _ := recover().(error)
		if err == nil || err.Error() != want {
			t.Errorf("New(%d windows) panicked with %v, want %q", maxWindows+1, err, want)
		}
	}()
	New(Config{Windows: maxWindows + 1})
}

func TestZeroRegister(t *testing.T) {
	f := New(DefaultConfig)
	f.Set(0, 12345)
	if got := f.Get(0); got != 0 {
		t.Errorf("r0 must read 0, got %d", got)
	}
}

func TestGlobalsSharedAcrossWindows(t *testing.T) {
	f := New(DefaultConfig)
	f.Set(5, 99)
	f.Call()
	if got := f.Get(5); got != 99 {
		t.Errorf("global r5 not shared across call: got %d", got)
	}
	f.Set(5, 100)
	f.Return()
	if got := f.Get(5); got != 100 {
		t.Errorf("global r5 not shared across return: got %d", got)
	}
}

func TestParameterOverlap(t *testing.T) {
	f := New(DefaultConfig)
	// Caller writes outgoing params r10..r15.
	for i := uint8(10); i <= 15; i++ {
		f.Set(i, 1000+uint32(i))
	}
	f.Call()
	// Callee must see them as incoming params r26..r31, with no copying.
	for i := uint8(26); i <= 31; i++ {
		want := 1000 + uint32(i) - 16
		if got := f.Get(i); got != want {
			t.Errorf("callee r%d = %d, want %d", i, got, want)
		}
	}
	// Callee writes a result into its HIGH block.
	f.Set(26, 424242)
	f.Return()
	if got := f.Get(10); got != 424242 {
		t.Errorf("caller r10 = %d, want callee's result 424242", got)
	}
}

func TestLocalsArePrivate(t *testing.T) {
	f := New(DefaultConfig)
	f.Set(16, 7)
	f.Set(25, 8)
	f.Call()
	if f.Get(16) != 0 || f.Get(25) != 0 {
		t.Error("callee locals should start fresh (zero), not alias caller's")
	}
	f.Set(16, 1111)
	f.Return()
	if got := f.Get(16); got != 7 {
		t.Errorf("caller local r16 clobbered by callee: got %d, want 7", got)
	}
	if got := f.Get(25); got != 8 {
		t.Errorf("caller local r25 clobbered by callee: got %d, want 8", got)
	}
}

func TestOverflowAndUnderflow(t *testing.T) {
	f := New(Config{Windows: 3}) // 2 resident activations max
	f.Set(16, 1)                 // depth-0 local
	if sp := f.Call(); sp != nil {
		t.Fatal("first call should not overflow")
	}
	f.Set(16, 2)
	sp := f.Call() // third activation: depth-0 must spill
	if sp == nil {
		t.Fatal("second call should overflow with 3 windows")
	}
	if len(sp) != SpillRegs {
		t.Fatalf("spill returned %d regs, want %d", len(sp), SpillRegs)
	}
	f.Set(16, 3)

	if f.Return() {
		t.Fatal("return to resident parent should not underflow")
	}
	if got := f.Get(16); got != 2 {
		t.Errorf("depth-1 local = %d, want 2", got)
	}
	if !f.Return() {
		t.Fatal("return to spilled activation should underflow")
	}
	f.Refill(sp)
	if got := f.Get(16); got != 1 {
		t.Errorf("depth-0 local after refill = %d, want 1", got)
	}
	if f.Stats.Overflows != 1 || f.Stats.Underflows != 1 {
		t.Errorf("stats = %+v, want 1 overflow and 1 underflow", f.Stats)
	}
}

func TestDepthTracking(t *testing.T) {
	f := New(DefaultConfig)
	f.Call()
	f.Call()
	f.Return()
	if f.Depth() != 1 || f.MaxDepth() != 2 {
		t.Errorf("depth = %d (max %d), want 1 (max 2)", f.Depth(), f.MaxDepth())
	}
}

// TestDeepRecursionPreservesLocals is the key correctness property of the
// window mechanism: under arbitrarily deep recursion with spills and
// refills, every activation gets back exactly the locals and incoming
// parameters it had, for any window count.
func TestDeepRecursionPreservesLocals(t *testing.T) {
	for _, windows := range []int{2, 3, 4, 8, 16} {
		f := New(Config{Windows: windows})
		var stack [][]uint32 // simulated memory save stack
		var recurse func(depth int)
		recurse = func(depth int) {
			// Mark this activation's locals with its depth.
			for r := uint8(16); r <= 25; r++ {
				f.Set(r, uint32(depth*100+int(r)))
			}
			if depth < 40 {
				f.Set(10, uint32(depth)) // outgoing param
				if sp := f.Call(); sp != nil {
					// The span is valid until the next Call: save it, as
					// the CPU's trap sequence stores it to memory at once.
					stack = append(stack, append([]uint32(nil), sp...))
				}
				if got := f.Get(26); got != uint32(depth) {
					t.Fatalf("w=%d depth=%d: param not passed, got %d", windows, depth, got)
				}
				recurse(depth + 1)
				if f.Return() {
					sp := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					f.Refill(sp)
				}
			}
			for r := uint8(16); r <= 25; r++ {
				want := uint32(depth*100 + int(r))
				if got := f.Get(r); got != want {
					t.Fatalf("w=%d depth=%d: local r%d = %d, want %d", windows, depth, r, got, want)
				}
			}
		}
		recurse(0)
		if len(stack) != 0 {
			t.Errorf("w=%d: %d unmatched spills", windows, len(stack))
		}
		if f.Stats.Overflows != f.Stats.Underflows {
			t.Errorf("w=%d: %d overflows vs %d underflows", windows, f.Stats.Overflows, f.Stats.Underflows)
		}
	}
}

// TestRandomCallTreeProperty drives a random call tree and checks locals
// round-trip, using testing/quick for seed generation.
func TestRandomCallTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		windows := 2 + r.Intn(7)
		rf := New(Config{Windows: windows})
		var stack [][]uint32
		ok := true
		var walk func(depth int)
		walk = func(depth int) {
			marker := r.Uint32()
			rf.Set(20, marker)
			kids := r.Intn(3)
			if depth > 25 {
				kids = 0
			}
			for k := 0; k < kids; k++ {
				if sp := rf.Call(); sp != nil {
					stack = append(stack, append([]uint32(nil), sp...))
				}
				walk(depth + 1)
				if rf.Return() {
					rf.Refill(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
				}
				if rf.Get(20) != marker {
					ok = false
				}
			}
		}
		walk(0)
		return ok && len(stack) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOverflowRateFallsWithWindows(t *testing.T) {
	// The shape behind the paper's overflow figure: more windows, fewer
	// overflows, for the same call pattern.
	rate := func(windows int) float64 {
		f := New(Config{Windows: windows})
		var stack [][]uint32
		var fib func(n int)
		fib = func(n int) {
			if n < 2 {
				return
			}
			for _, k := range []int{n - 1, n - 2} {
				if sp := f.Call(); sp != nil {
					// The span is valid until the next Call: save it, as
					// the CPU's trap sequence stores it to memory at once.
					stack = append(stack, append([]uint32(nil), sp...))
				}
				fib(k)
				if f.Return() {
					f.Refill(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
				}
			}
		}
		fib(12)
		return float64(f.Stats.Overflows) / float64(f.Stats.Calls)
	}
	r2, r4, r8 := rate(2), rate(4), rate(8)
	if !(r2 > r4 && r4 > r8) {
		t.Errorf("overflow rate should fall with window count: w2=%.3f w4=%.3f w8=%.3f", r2, r4, r8)
	}
}

func TestReset(t *testing.T) {
	f := New(DefaultConfig)
	f.Set(5, 1)
	f.Set(16, 2)
	f.Call()
	f.Reset()
	if f.Get(5) != 0 || f.Get(16) != 0 || f.CWP() != 0 || f.Depth() != 0 {
		t.Error("Reset did not restore power-on state")
	}
	if f.Stats != (Stats{}) {
		t.Error("Reset did not clear stats")
	}
}

func TestGetSetOutOfRangePanics(t *testing.T) {
	f := New(DefaultConfig)
	for _, fn := range []func(){
		func() { f.Get(32) },
		func() { f.Set(32, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range register access should panic")
				}
			}()
			fn()
		}()
	}
}

// refFile is the register file as the window formula defines it: the
// reference the precomputed window maps are checked against.
type refFile struct {
	windows int
	globals [numGlobals]uint32
	buf     []uint32
}

func (m *refFile) slot(w int, r uint8) *uint32 {
	switch {
	case r < numGlobals:
		return &m.globals[r]
	case r < 16:
		return &m.buf[(w+1)%m.windows*regsPerWindow+int(r-10)]
	case r < 26:
		return &m.buf[w*regsPerWindow+overlap+int(r-16)]
	default:
		return &m.buf[w*regsPerWindow+int(r-26)]
	}
}

// TestWindowMapsMatchFormula drives every window of files with 2..16
// windows through calls (with overflows) and returns (with refills),
// writing all 32 visible registers at each stop, and checks every Get
// against the formula — on the file itself, on a Clone and on a
// CopyFrom target.
func TestWindowMapsMatchFormula(t *testing.T) {
	for windows := 2; windows <= 16; windows++ {
		f := New(Config{Windows: windows})
		ref := &refFile{windows: windows, buf: make([]uint32, windows*regsPerWindow)}
		val := uint32(1)
		check := func(what string, g *File) {
			t.Helper()
			for r := uint8(0); r < visibleRegs; r++ {
				want := *ref.slot(g.CWP(), r)
				if r == 0 {
					want = 0
				}
				if got := g.Get(r); got != want {
					t.Fatalf("%d windows, %s, cwp %d: r%d = %d, want %d", windows, what, g.CWP(), r, got, want)
				}
			}
		}
		visit := func() {
			t.Helper()
			check("file on entry", f) // what the last window left behind
			for r := uint8(0); r < visibleRegs; r++ {
				f.Set(r, val)
				*ref.slot(f.CWP(), r) = val
				val++
			}
			check("file", f)
			g := f.Clone()
			check("clone", g)
			g.Set(16, 0xdead) // the clone shares no register with f
			check("file after a clone's write", f)
			h := New(Config{Windows: windows})
			h.CopyFrom(f)
			check("CopyFrom target", h)
		}
		for i := 0; i < 2*windows; i++ {
			// A spill is the oldest window's HIGH block and locals, in
			// buffer order.
			oldest := f.oldest
			for j, v := range f.Call() {
				if want := ref.buf[oldest*regsPerWindow+j]; v != want {
					t.Fatalf("%d windows: spilled[%d] = %d, want %d", windows, j, v, want)
				}
			}
			visit()
		}
		for i := 0; i < 2*windows; i++ {
			if f.Return() {
				vals := make([]uint32, SpillRegs)
				for j := range vals {
					vals[j] = val
					ref.buf[f.CWP()*regsPerWindow+j] = val
					val++
				}
				f.Refill(vals)
			}
			visit()
		}
	}
}

// TestOverflowAllocatesNothing: with two windows every call overflows,
// and a chain of them hands back the File's own spill buffer each time
// instead of allocating one.
func TestOverflowAllocatesNothing(t *testing.T) {
	f := New(Config{Windows: 2})
	f.Call() // the first call already overflows with two windows
	before := f.Stats.Overflows
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			if f.Call() == nil {
				t.Fatal("call with two windows did not overflow")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("16 overflowing calls allocate %.0f objects, want 0", allocs)
	}
	if got := f.Stats.Overflows - before; got != 101*16 {
		t.Errorf("overflows = %d, want %d", got, 101*16)
	}
}

// TestSpillBufferNotShared: a Clone or a CopyFrom target overflows into
// its own buffer, never into the one the original handed out.
func TestSpillBufferNotShared(t *testing.T) {
	f := New(Config{Windows: 2})
	f.Set(16, 7)
	spilled := f.Call() // two windows: the first call spills the window holding 7
	if spilled[overlap] != 7 {
		t.Fatalf("spilled local = %d, want 7", spilled[overlap])
	}
	g := f.Clone()
	h := New(Config{Windows: 2})
	h.CopyFrom(f)
	for _, other := range []*File{g, h} {
		other.Set(16, 9)
		if sp := other.Call(); sp[overlap] != 9 {
			t.Fatalf("other file spilled local = %d, want 9", sp[overlap])
		}
		if spilled[overlap] != 7 {
			t.Errorf("another file's overflow rewrote this file's spill buffer: local = %d, want 7", spilled[overlap])
		}
	}
}

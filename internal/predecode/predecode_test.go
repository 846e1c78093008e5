package predecode

import (
	"testing"

	"risc1/internal/mem"
)

const memSize = 64 << 10

// hit reports whether addr dispatches from the cache.
func hit[D any](c *Cache[D], addr uint32) bool { return c.Span(addr) != nil }

// newCache attaches a cache of uint32 records to a fresh memory.
func newCache(t *testing.T, shift, reach uint32) (*Cache[uint32], *mem.Memory) {
	t.Helper()
	m := mem.New(memSize)
	c := New[uint32](memSize, shift, reach)
	c.Attach(m)
	return c, m
}

func TestLazyAllocation(t *testing.T) {
	c, m := newCache(t, 2, 0)
	// The image-build sequence — Reset, load, snapshot, restore — never
	// steps, so it must allocate neither the page table nor a page.
	m.Reset()
	if err := m.WriteBytes(0, make([]byte, 3*mem.PageSize+5)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	m.Restore(snap)
	if c.pages != nil || c.Stats().Pages != 0 {
		t.Fatalf("never-filled cache allocated: table %v, %d pages", c.pages != nil, c.Stats().Pages)
	}
	if hit(c, 0) {
		t.Fatal("hit in an empty cache")
	}
	c.Fill(0x1000, 7)
	if c.Stats().Pages != 1 || len(c.pages) != memSize/4/PageEntries {
		t.Fatalf("after one fill: %d pages, table of %d", c.Stats().Pages, len(c.pages))
	}
	if s := c.Span(0x1000); len(s) != PageEntries || s[0] != (Entry[uint32]{D: 7, Valid: true}) {
		t.Fatalf("Span after Fill = %d entries, first %+v", len(s), s[0])
	}
	c.AddHits(1)
	// Misaligned and out-of-range addresses miss without a fault.
	if hit(c, 0x1002) || hit(c, memSize+0x1000) {
		t.Fatal("misaligned or out-of-range lookup hit")
	}
	c.Fill(memSize, 1) // past the end: ignored
	if got := c.Stats(); got != (Stats{Hits: 1, Fills: 1, Pages: 1}) {
		t.Errorf("stats = %+v", got)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache[uint32]
	m := mem.New(memSize)
	c.Attach(m)
	if m.OnStore != nil {
		t.Fatal("a nil cache attached a hook")
	}
	c.Fill(0, 1)
	c.CountMiss()
	if hit(c, 0) || c.Stats() != (Stats{}) || c.Clone(m) != nil {
		t.Fatal("nil cache is not inert")
	}
}

// TestStoreInvalidatesOverlap: a word-granular store clears only the
// entries it overlaps; a byte-granular cache with reach r also clears
// the r entries before the store, whose instructions may run into it.
func TestStoreInvalidatesOverlap(t *testing.T) {
	t.Run("word", func(t *testing.T) {
		c, m := newCache(t, 2, 0)
		for a := uint32(0x100); a < 0x120; a += 4 {
			c.Fill(a, a)
		}
		if err := m.StoreHalf(0x10a, 1); err != nil {
			t.Fatal(err)
		}
		for a := uint32(0x100); a < 0x120; a += 4 {
			if hit := hit(c, a); hit != (a != 0x108) {
				t.Errorf("entry %#x hit=%v after a store to 0x10a", a, hit)
			}
		}
		if got := c.Stats().Invalidations; got != 1 {
			t.Errorf("invalidations = %d, want 1", got)
		}
	})
	t.Run("byte-reach", func(t *testing.T) {
		c, m := newCache(t, 0, 15)
		for a := uint32(0x100); a < 0x140; a++ {
			c.Fill(a, a)
		}
		if err := m.StoreWord(0x120, 1); err != nil {
			t.Fatal(err)
		}
		for a := uint32(0x100); a < 0x140; a++ {
			cleared := a >= 0x120-15 && a < 0x124
			if hit := hit(c, a); hit == cleared {
				t.Errorf("entry %#x hit=%v after a store to [0x120,0x124)", a, hit)
			}
		}
		if got := c.Stats().Invalidations; got != 15+4 {
			t.Errorf("invalidations = %d, want 19", got)
		}
	})
}

// TestStraddlingInstruction: an instruction whose first byte sits at the
// end of one cache page (and one 4 KiB memory page) is dropped by a
// store to its last byte on the next page, by a byte store and by a
// whole-page restore alike.
func TestStraddlingInstruction(t *testing.T) {
	for _, first := range []uint32{PageEntries - 3, mem.PageSize - 3} {
		c, m := newCache(t, 0, 15)
		base := m.Snapshot()
		c.Fill(first, 1)
		if err := m.StoreByte(first+15, 9); err != nil {
			t.Fatal(err)
		}
		if hit(c, first) {
			t.Errorf("entry %#x survived a store to its last byte %#x", first, first+15)
		}
		c.Fill(first, 1)
		m.Restore(base) // fires one event for the page holding first+15 only
		if hit(c, first) {
			t.Errorf("entry %#x survived a restore of the page holding its tail", first)
		}
	}
}

// TestWholePageClearInPlace: a write spanning a page's worth of entries
// clears every page it touches without dropping it, and counts one
// invalidation per page holding a fill since its last clear — the
// counting rule that keeps risc1's counters identical to dropping pages.
func TestWholePageClearInPlace(t *testing.T) {
	c, m := newCache(t, 2, 0)
	c.Fill(0x0, 1)
	c.Fill(0x1000, 2)
	pages := append([]*page[uint32](nil), c.pages...)
	m.Reset()
	if hit(c, 0) || hit(c, 0x1000) {
		t.Fatal("entries survived Reset")
	}
	for i, pg := range c.pages {
		if pg != pages[i] {
			t.Fatalf("page %d was replaced, not cleared in place", i)
		}
	}
	if got := c.Stats().Invalidations; got != 2 {
		t.Errorf("invalidations after Reset = %d, want 2 (one per filled page)", got)
	}
	m.Reset() // nothing filled since the clear: not counted
	if got := c.Stats().Invalidations; got != 2 {
		t.Errorf("invalidations after a second Reset = %d, want 2", got)
	}
	c.Fill(0x1004, 3)
	if err := m.StoreWord(0x1004, 0); err != nil { // entry-level
		t.Fatal(err)
	}
	m.Reset() // the page had a fill since its clear: counted, like a dropped page
	if got := c.Stats().Invalidations; got != 4 {
		t.Errorf("invalidations = %d, want 4", got)
	}
	if got := c.Stats().Pages; got != 2 {
		t.Errorf("pages = %d, want the 2 reused", got)
	}
}

// TestCloneIsIndependent: a clone serves the fork's memory alone — a
// store on either side invalidates only that side's cache.
func TestCloneIsIndependent(t *testing.T) {
	c, m := newCache(t, 2, 0)
	c.Fill(0x100, 1)
	c.Fill(0x200, 2)
	fm := m.Fork()
	f := c.Clone(fm)
	if err := fm.StoreWord(0x100, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreWord(0x200, 0); err != nil {
		t.Fatal(err)
	}
	if !hit(c, 0x100) || hit(c, 0x200) {
		t.Error("parent cache saw the fork's store or missed its own")
	}
	if !hit(f, 0x200) || hit(f, 0x100) {
		t.Error("fork cache saw the parent's store or missed its own")
	}
}

// TestSpan: a span is the rest of the page from its first entry; its
// entries are the page's own, so a store the walker's instruction makes
// into a later entry shows as that entry's Valid going false, and a
// whole-page clear leaves the span readable with every entry invalid.
func TestSpan(t *testing.T) {
	c, m := newCache(t, 2, 0)
	for a := uint32(0x1000); a < 0x1010; a += 4 {
		c.Fill(a, a)
	}
	s := c.Span(0x1004)
	if len(s) != PageEntries-1 || s[0].D != 0x1004 || s[2].D != 0x100c || s[3].Valid {
		t.Fatalf("span of %d entries: %+v", len(s), s[:4])
	}
	if err := m.StoreWord(0x1008, 0); err != nil {
		t.Fatal(err)
	}
	if s[1].Valid || !s[0].Valid || !s[2].Valid {
		t.Errorf("store into 0x1008 not seen in place: %+v", s[:3])
	}
	if hit(c, 0x1008) || !hit(c, 0x100c) {
		t.Error("Span disagrees with the store")
	}
	m.Reset()
	for i, e := range s[:4] {
		if e.Valid {
			t.Errorf("entry %d valid after a whole-page clear", i)
		}
	}
	if got := c.Stats(); got.Hits != 0 {
		t.Errorf("Span counted %d hits; AddHits alone credits them", got.Hits)
	}
}

// TestInvalidateEarlyOut: a store whose reach misses every entry ever
// filled returns before the entry loop and counts nothing, and one in
// the reach-back window of the byte-granular cache still clears.
func TestInvalidateEarlyOut(t *testing.T) {
	const lo, hi = 0x2000, 0x2040
	t.Run("word", func(t *testing.T) {
		c, m := newCache(t, 2, 0)
		c.Fill(lo, 1)
		c.Fill(hi, 2)
		for _, a := range []uint32{lo - 4, hi + 4} { // just below lo, just above hi+reach
			if err := m.StoreWord(a, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.Stats().Invalidations; got != 0 || !hit(c, lo) || !hit(c, hi) {
			t.Errorf("stores outside [lo, hi] cleared: %d invalidations", got)
		}
		if err := m.StoreByte(hi+3, 0); err != nil { // last byte of the word at hi
			t.Fatal(err)
		}
		if hit(c, hi) {
			t.Error("a store into the last filled word did not clear it")
		}
	})
	t.Run("byte-reach", func(t *testing.T) {
		const reach = 15
		c, m := newCache(t, 0, reach)
		c.Fill(lo, 1)
		c.Fill(hi, 2)
		if err := m.StoreByte(lo-1, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.StoreByte(hi+reach+1, 0); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Invalidations; got != 0 || !hit(c, lo) || !hit(c, hi) {
			t.Errorf("stores outside [lo, hi+reach] cleared: %d invalidations", got)
		}
		if err := m.StoreByte(hi+reach, 0); err != nil { // the entry's last possible byte
			t.Fatal(err)
		}
		if got := c.Stats().Invalidations; got != 1 || hit(c, hi) {
			t.Errorf("store in the reach-back window: %d invalidations, hit %v", got, hit(c, hi))
		}
	})
	t.Run("bulk", func(t *testing.T) {
		// A bulk write clears whole pages, so one that ends short of a
		// filled entry on its last page still clears that page.
		c, m := newCache(t, 2, 0)
		c.Fill(0x1ffc, 1) // last entry of page 1
		if err := m.WriteBytes(0x400, make([]byte, 4*PageEntries)); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Invalidations; got != 1 || hit(c, 0x1ffc) {
			t.Errorf("bulk write over the page: %d invalidations, hit %v", got, hit(c, 0x1ffc))
		}
	})
}

// TestCloneCarriesBounds: a fork's cache keeps the fill bounds, so a
// store the parent would clear is cleared on the fork too.
func TestCloneCarriesBounds(t *testing.T) {
	c, m := newCache(t, 2, 0)
	c.Fill(0x3000, 1)
	fm := m.Fork()
	f := c.Clone(fm)
	if f.lo != c.lo || f.hi != c.hi {
		t.Fatalf("clone bounds [%d, %d], want [%d, %d]", f.lo, f.hi, c.lo, c.hi)
	}
	if err := fm.StoreWord(0x3000, 0); err != nil {
		t.Fatal(err)
	}
	if hit(f, 0x3000) || f.Stats().Invalidations != 1 {
		t.Error("the fork's store did not clear its entry")
	}
}

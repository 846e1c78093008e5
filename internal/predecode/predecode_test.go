package predecode

import (
	"testing"

	"risc1/internal/mem"
)

const memSize = 64 << 10

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
	if c.Lookup(0) != nil {
		t.Fatal("hit in an empty cache")
	}
	c.Fill(0x1000, 7)
	if c.Stats().Pages != 1 || len(c.pages) != memSize/4/PageEntries {
		t.Fatalf("after one fill: %d pages, table of %d", c.Stats().Pages, len(c.pages))
	}
	if d := c.Lookup(0x1000); d == nil || *d != 7 {
		t.Fatalf("Lookup after Fill = %v", d)
	}
	// Misaligned and out-of-range addresses miss without a fault.
	if c.Lookup(0x1002) != nil || c.Lookup(memSize+0x1000) != nil {
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
	if c.Lookup(0) != nil || c.Stats() != (Stats{}) || c.Clone(m) != nil {
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
			if hit := c.Lookup(a) != nil; hit != (a != 0x108) {
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
			if hit := c.Lookup(a) != nil; hit == cleared {
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
		if c.Lookup(first) != nil {
			t.Errorf("entry %#x survived a store to its last byte %#x", first, first+15)
		}
		c.Fill(first, 1)
		m.Restore(base) // fires one event for the page holding first+15 only
		if c.Lookup(first) != nil {
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
	if c.Lookup(0) != nil || c.Lookup(0x1000) != nil {
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
	if c.Lookup(0x100) == nil || c.Lookup(0x200) != nil {
		t.Error("parent cache saw the fork's store or missed its own")
	}
	if f.Lookup(0x200) == nil || f.Lookup(0x100) != nil {
		t.Error("fork cache saw the parent's store or missed its own")
	}
}

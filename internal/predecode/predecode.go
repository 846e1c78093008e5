// Package predecode is the predecoded instruction cache all three
// simulators share. It removes fetch and decode from an interpreter's
// hot path: the first execution of an address decodes the instruction
// there once into a backend-specific record D, and every later visit
// dispatches straight from the cache. It changes only host speed —
// simulated cycle accounting is untouched, so every statistic, trace
// and report is byte-identical with the cache on or off.
//
// Entries are indexed by address at a per-backend granularity: one per
// 4-byte word for the fixed-format machines (risc1, rv32), one per byte
// for the variable-length CISC baseline, whose instructions may start
// anywhere.
//
// Correctness under self-modifying code comes from mem.Memory's OnStore
// hook, which the cache owns (Attach): every store, including window
// spills, program loads, Reset and Restore, reports its byte range, and
// the cache drops every entry whose instruction could overlap it. An
// entry at address a covers at most reach+1 bytes, so a store to
// [addr, addr+size) reaches back to entries from addr-reach on; reach
// is 0 for the word-granular machines and the maximum instruction
// length minus one for the CISC baseline.
//
// Pages hold PageEntries entries and are allocated lazily, as is the
// page table itself: a machine that never steps (a warm-start image
// build) allocates nothing, and a large memory costs nothing until code
// runs in it. A store covering a whole page clears the page in place
// rather than dropping it, so a pooled machine that restores a
// different image on every request reuses its pages instead of
// reallocating them.
package predecode

import "risc1/internal/mem"

// PageEntries is the number of entries per cache page.
const (
	PageEntries = 1024
	pageShift   = 10
	pageMask    = PageEntries - 1
)

// Stats counts cache activity — observability for tests and tools, not
// part of the simulated machine. Hits + Misses equals the number of
// dispatch attempts; Misses exceeds Fills only when a miss faults before
// the entry can be filled (bad fetch or illegal instruction).
type Stats struct {
	Hits          uint64 // instructions dispatched from the cache
	Misses        uint64 // dispatches that fell back to fetch+decode
	Fills         uint64 // instructions decoded into the cache
	Invalidations uint64 // entries, or whole pages, cleared by overlapping writes
	// Pages counts cache pages allocated. Pages are cleared in place,
	// never freed, so it is also the number resident.
	Pages uint64
}

type entry[D any] struct {
	d     D
	valid bool
}

type page[D any] struct {
	// filled records a fill since the page was last cleared; a page
	// without one holds no valid entry, so clearing it is a no-op and
	// is not counted as an invalidation.
	filled bool
	e      [PageEntries]entry[D]
}

// Cache is a predecode cache of records D. A nil *Cache is a disabled
// cache: Lookup misses without counting, Fill and Attach do nothing.
type Cache[D any] struct {
	shift  uint32 // log2 of the bytes one entry indexes
	align  uint32 // 1<<shift - 1: an entry address must be aligned
	reach  uint32 // bytes an instruction may extend past its first
	npages uint32
	pages  []*page[D] // nil until the first fill
	stats  Stats
}

// New returns an empty cache for a memory of memSize bytes with one
// entry per 1<<shift bytes, whose instructions span at most reach+1
// bytes. It allocates only the Cache header.
func New[D any](memSize int, shift, reach uint32) *Cache[D] {
	entries := (uint64(memSize) + 1<<shift - 1) >> shift
	return &Cache[D]{
		shift:  shift,
		align:  1<<shift - 1,
		reach:  reach,
		npages: uint32((entries + PageEntries - 1) / PageEntries),
	}
}

// Attach makes the cache the memory's store observer, so every
// mutation of m invalidates the entries it overlaps. A cache serves
// exactly one memory.
func (c *Cache[D]) Attach(m *mem.Memory) {
	if c != nil {
		m.OnStore = c.invalidate
	}
}

// Lookup returns the cached record for addr, or nil on a miss
// (including a misaligned or out-of-range address, which the caller's
// slow path turns into whatever fault it always raised). Misses are
// counted by CountMiss at the dispatch site, not here: the hit path runs
// once per simulated instruction and must stay inlinable.
func (c *Cache[D]) Lookup(addr uint32) *D {
	if c == nil {
		return nil
	}
	idx := addr >> (c.shift & 31)
	p := idx >> pageShift
	if addr&c.align == 0 && p < uint32(len(c.pages)) {
		if pg := c.pages[p]; pg != nil {
			if e := &pg.e[idx&pageMask]; e.valid {
				c.stats.Hits++
				return &e.d
			}
		}
	}
	return nil
}

// CountMiss attributes one dispatch to the fetch+decode slow path.
func (c *Cache[D]) CountMiss() {
	if c != nil {
		c.stats.Misses++
	}
}

// Fill records a freshly decoded instruction at addr.
func (c *Cache[D]) Fill(addr uint32, d D) {
	if c == nil || addr&c.align != 0 {
		return
	}
	idx := addr >> c.shift
	p := idx >> pageShift
	if p >= c.npages {
		return
	}
	if c.pages == nil {
		c.pages = make([]*page[D], c.npages)
	}
	pg := c.pages[p]
	if pg == nil {
		pg = new(page[D])
		c.pages[p] = pg
		c.stats.Pages++
	}
	pg.e[idx&pageMask] = entry[D]{d: d, valid: true}
	pg.filled = true
	c.stats.Fills++
}

// Stats returns the activity counters (zero for a disabled cache).
func (c *Cache[D]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// Clone deep-copies the cache — pages holding entries, and counters —
// and attaches the copy to m, for machine forks. The clone is valid
// only while m holds the same code bytes the original's memory did at
// clone time, which a fork guarantees by cloning cache and memory
// together (mem.Memory.Fork does not carry the hook over).
func (c *Cache[D]) Clone(m *mem.Memory) *Cache[D] {
	if c == nil {
		return nil
	}
	n := *c
	n.pages, n.stats.Pages = nil, 0
	if c.pages != nil {
		n.pages = make([]*page[D], len(c.pages))
		for i, pg := range c.pages {
			if pg != nil && pg.filled {
				cp := *pg
				n.pages[i] = &cp
				n.stats.Pages++
			}
		}
	}
	n.Attach(m)
	return &n
}

// invalidate clears every entry whose instruction could overlap the
// byte range [addr, addr+size); it is the Memory.OnStore hook.
// Ordinary stores clear individual entries — data and code often share
// a page, and clearing the whole page on every store to a nearby global
// would thrash the cache. A write spanning at least a page's worth of
// entries (program loads, Reset, Restore) clears every page it touches
// in place, and the reach-back entries before it one by one.
func (c *Cache[D]) invalidate(addr, size uint32) {
	if size == 0 || c.pages == nil {
		return
	}
	first := addr >> c.shift
	last := uint32((uint64(addr) + uint64(size) - 1) >> c.shift)
	head := uint32(0) // first entry the reach-back extends to
	if addr > c.reach {
		head = (addr - c.reach) >> c.shift
	}
	hi := last // last entry cleared one by one
	if last-first+1 >= PageEntries {
		for p := first >> pageShift; p <= last>>pageShift && p < c.npages; p++ {
			if pg := c.pages[p]; pg != nil && pg.filled {
				pg.e = [PageEntries]entry[D]{}
				pg.filled = false
				c.stats.Invalidations++
			}
		}
		if head == first {
			return
		}
		hi = first - 1 // only the reach-back head remains
	}
	for i := head; ; {
		p := i >> pageShift
		if p >= c.npages {
			return
		}
		end := min(p<<pageShift|pageMask, hi) // last entry of this page in range
		if pg := c.pages[p]; pg != nil && pg.filled {
			for j := i; ; j++ {
				if e := &pg.e[j&pageMask]; e.valid {
					*e = entry[D]{}
					c.stats.Invalidations++
				}
				if j == end {
					break
				}
			}
		}
		if end == hi {
			return
		}
		i = end + 1
	}
}

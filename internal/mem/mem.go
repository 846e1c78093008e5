// Package mem provides the byte-addressable main memory shared by the
// RISC I simulator and the CISC baseline. RISC I is big-endian; memory
// enforces natural alignment for halfword and word accesses, as the chip
// did, and counts traffic so the paper's memory-traffic comparisons can
// be regenerated.
//
// Storage is paged: memory is a table of lazily allocated 4 KiB pages,
// with absent pages reading as zero. Pages carry an atomic reference
// count, which is what makes Snapshot, Restore and Fork O(touched
// pages): a snapshot shares the page table and bumps every page's count;
// a later write to a shared page copies it first (copy-on-write). Pages
// come from a process-wide sync.Pool, so the churn of forking a machine
// per request does not hammer the garbage collector. A page is mutable
// only while exactly one owner references it; shared pages are immutable
// until released, which is what makes concurrent forks race-free.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the granularity of copy-on-write sharing. Aligned word and
// halfword accesses never straddle a page because PageSize is a multiple
// of the largest access size.
const (
	PageSize  = 4096
	pageShift = 12
	pageMask  = PageSize - 1
)

// page is one 4 KiB block plus its owner count. refs is the number of
// Memory page tables and Snapshots that reference it; data may be
// written only while refs == 1.
type page struct {
	refs atomic.Int32
	data [PageSize]byte
}

// pagePool recycles pages process-wide. Pooled pages are dirty: they
// are cleaned (or fully overwritten) at acquisition, not at release, so
// that releasing a page — the hot path of Restore when it drops a
// forked run's private pages — is a pointer operation, not a memclr.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// newZeroPage returns an all-zero page owned by one reference. An
// absent page table entry reads as zero, so a lazily materialized page
// must agree with it.
func newZeroPage() *page {
	p := pagePool.Get().(*page)
	p.data = [PageSize]byte{}
	p.refs.Store(1)
	return p
}

// newCopyPage returns a copy of src owned by one reference. The copy
// overwrites the whole page, so the pooled page needs no zeroing first.
func newCopyPage(src *page) *page {
	p := pagePool.Get().(*page)
	p.data = src.data
	p.refs.Store(1)
	return p
}

// release drops one reference, recycling the page when the last owner
// lets go.
func (p *page) release() {
	if p.refs.Add(-1) == 0 {
		pagePool.Put(p)
	}
}

// AccessError describes a faulting memory access. The simulators convert
// it into a halted machine state rather than panicking, since bad
// addresses are ordinary (buggy-program) input.
type AccessError struct {
	Addr  uint32
	Size  int
	Write bool
	Why   string
}

func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: %s of %d bytes at %#08x: %s", kind, e.Size, e.Addr, e.Why)
}

// Stats counts data-memory traffic (instruction fetch is counted by the
// CPUs separately, since the paper separates the two streams).
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
}

// Accesses returns the total number of data-memory operations.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Memory is a paged, big-endian, byte-addressable store.
type Memory struct {
	pages []*page // nil entry = all-zero page
	size  int

	// Stats accumulates data traffic. Callers may reset it directly.
	Stats Stats

	// OnStore, when non-nil, is called after every successful mutation
	// with the affected byte range [addr, addr+size). The predecoded
	// instruction cache (internal/predecode) owns it on every simulator,
	// invalidating decodes when a store lands in cached code, so
	// self-modifying programs stay correct. Reset,
	// Restore and WriteBytes report their full ranges too. The hook
	// belongs to this Memory alone: Fork does not carry it over.
	OnStore func(addr, size uint32)
}

func (m *Memory) notify(addr, size uint32) {
	if m.OnStore != nil {
		m.OnStore(addr, size)
	}
}

// DefaultSize is the memory size every machine uses unless configured
// otherwise, and the largest image the assemblers lay out.
const DefaultSize = 1 << 20

// New allocates size bytes of zeroed memory.
func New(size int) *Memory {
	if size <= 0 {
		panic(fmt.Sprintf("mem: invalid size %d", size))
	}
	npages := (size + PageSize - 1) / PageSize
	return &Memory{pages: make([]*page, npages), size: size}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

func (m *Memory) check(addr uint32, size int, write bool) error {
	if uint64(addr)+uint64(size) > uint64(m.size) {
		return &AccessError{Addr: addr, Size: size, Write: write, Why: "address out of range"}
	}
	if addr%uint32(size) != 0 {
		return &AccessError{Addr: addr, Size: size, Write: write, Why: "misaligned"}
	}
	return nil
}

// writable returns the page for table index pi with exclusive ownership,
// allocating an empty page or copying a shared one as needed.
//
// The copy-on-write handshake is safe under concurrent forks because a
// page is written only when refs == 1. Two forks both seeing refs == 2
// each copy and release; a fork seeing refs == 1 observes (through the
// same atomic) that every other owner has already released — and owners
// release only after they are done reading — so writing in place is
// race-free.
func (m *Memory) writable(pi uint32) *page {
	pg := m.pages[pi]
	if pg == nil {
		pg = newZeroPage()
		m.pages[pi] = pg
		return pg
	}
	if pg.refs.Load() > 1 {
		np := newCopyPage(pg)
		m.pages[pi] = np
		pg.release()
		return np
	}
	return pg
}

// LoadWord reads a 32-bit big-endian word.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	m.Stats.Reads++
	m.Stats.BytesRead += 4
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		return 0, nil
	}
	return binary.BigEndian.Uint32(pg.data[addr&pageMask:]), nil
}

// StoreWord writes a 32-bit big-endian word.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	if err := m.check(addr, 4, true); err != nil {
		return err
	}
	m.Stats.Writes++
	m.Stats.BytesWritten += 4
	pg := m.writable(addr >> pageShift)
	binary.BigEndian.PutUint32(pg.data[addr&pageMask:], v)
	m.notify(addr, 4)
	return nil
}

// LoadHalf reads a 16-bit halfword, zero-extended.
func (m *Memory) LoadHalf(addr uint32) (uint32, error) {
	if err := m.check(addr, 2, false); err != nil {
		return 0, err
	}
	m.Stats.Reads++
	m.Stats.BytesRead += 2
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		return 0, nil
	}
	return uint32(binary.BigEndian.Uint16(pg.data[addr&pageMask:])), nil
}

// StoreHalf writes the low 16 bits of v.
func (m *Memory) StoreHalf(addr uint32, v uint32) error {
	if err := m.check(addr, 2, true); err != nil {
		return err
	}
	m.Stats.Writes++
	m.Stats.BytesWritten += 2
	pg := m.writable(addr >> pageShift)
	binary.BigEndian.PutUint16(pg.data[addr&pageMask:], uint16(v))
	m.notify(addr, 2)
	return nil
}

// LoadByte reads one byte, zero-extended.
func (m *Memory) LoadByte(addr uint32) (uint32, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	m.Stats.Reads++
	m.Stats.BytesRead++
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		return 0, nil
	}
	return uint32(pg.data[addr&pageMask]), nil
}

// StoreByte writes the low 8 bits of v.
func (m *Memory) StoreByte(addr uint32, v uint32) error {
	if err := m.check(addr, 1, true); err != nil {
		return err
	}
	m.Stats.Writes++
	m.Stats.BytesWritten++
	pg := m.writable(addr >> pageShift)
	pg.data[addr&pageMask] = byte(v)
	m.notify(addr, 1)
	return nil
}

// FetchWord reads a word without touching the data-traffic statistics;
// the CPUs use it for instruction fetch and count fetches themselves.
func (m *Memory) FetchWord(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		return 0, nil
	}
	return binary.BigEndian.Uint32(pg.data[addr&pageMask:]), nil
}

// FetchByte reads one byte without counting it as data traffic; the CISC
// simulator fetches its variable-length instructions bytewise.
func (m *Memory) FetchByte(addr uint32) (byte, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		return 0, nil
	}
	return pg.data[addr&pageMask], nil
}

// WriteBytes copies raw bytes into memory (program loading); it bypasses
// traffic statistics and alignment checks. The write may span pages.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	if uint64(addr)+uint64(len(b)) > uint64(m.size) {
		return &AccessError{Addr: addr, Size: len(b), Write: true, Why: "address out of range"}
	}
	if len(b) == 0 {
		return nil
	}
	for off := 0; off < len(b); {
		a := addr + uint32(off)
		pg := m.writable(a >> pageShift)
		n := copy(pg.data[a&pageMask:], b[off:])
		off += n
	}
	m.notify(addr, uint32(len(b)))
	return nil
}

// ReadBytes copies raw bytes out of memory (result inspection); it
// bypasses traffic statistics.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, error) {
	if uint64(addr)+uint64(n) > uint64(m.size) {
		return nil, &AccessError{Addr: addr, Size: n, Write: false, Why: "address out of range"}
	}
	out := make([]byte, n)
	for off := 0; off < n; {
		a := addr + uint32(off)
		pg := m.pages[a>>pageShift]
		chunk := PageSize - int(a&pageMask)
		if rest := n - off; chunk > rest {
			chunk = rest
		}
		if pg != nil {
			copy(out[off:off+chunk], pg.data[a&pageMask:])
		}
		off += chunk
	}
	return out, nil
}

// Reset zeroes all of memory and the statistics by releasing every page.
// It fires OnStore for the full address range — the predecoded
// icache depends on that to drop stale decodes when a machine
// is reset and reloaded with different code.
func (m *Memory) Reset() {
	for i, pg := range m.pages {
		if pg != nil {
			pg.release()
			m.pages[i] = nil
		}
	}
	m.Stats = Stats{}
	m.notify(0, uint32(m.size))
}

// TouchedPages reports how many pages are materialized — the unit of
// snapshot and fork cost.
func (m *Memory) TouchedPages() int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// Snapshot is an immutable point-in-time image of a Memory, sharing the
// underlying pages copy-on-write. A Snapshot may be restored into any
// Memory of the same size, any number of times, from any goroutine.
// Dropping a Snapshot without Release simply defers the pages to the
// garbage collector instead of the page pool.
type Snapshot struct {
	pages []*page
	size  int
	stats Stats
}

// Size returns the snapshotted memory's size in bytes.
func (s *Snapshot) Size() int { return s.size }

// Pages reports how many materialized pages the snapshot references.
func (s *Snapshot) Pages() int {
	n := 0
	for _, pg := range s.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// Snapshot captures the current contents and traffic statistics in
// O(touched pages): it copies the page table and bumps each page's
// reference count, making every shared page copy-on-write for both
// sides.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{pages: make([]*page, len(m.pages)), size: m.size, stats: m.Stats}
	for i, pg := range m.pages {
		if pg != nil {
			pg.refs.Add(1)
			s.pages[i] = pg
		}
	}
	return s
}

// Restore rewinds the memory to the snapshot's contents and statistics
// in O(touched pages of either side). It fires OnStore once per run of
// changed pages — a page whose table entry is unchanged is shared with
// the snapshot (refs >= 2) and therefore immutable since the snapshot
// was taken, so its bytes cannot have diverged and no event is needed.
// This is what keeps a warm re-entry's predecoded code hot: restoring
// after a run that touched three pages invalidates three pages of
// decode, not the whole machine. It panics if the snapshot came from a
// memory of a different size (a programming error, not runtime input).
func (m *Memory) Restore(s *Snapshot) {
	if s.size != m.size {
		panic(fmt.Sprintf("mem: restore of a %d-byte snapshot into a %d-byte memory", s.size, m.size))
	}
	runStart := -1
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		base := uint32(runStart) * PageSize
		limit := uint32(end) * PageSize
		if limit > uint32(m.size) {
			limit = uint32(m.size)
		}
		m.notify(base, limit-base)
		runStart = -1
	}
	for i := range m.pages {
		old, next := m.pages[i], s.pages[i]
		if old == next {
			flush(i)
			continue
		}
		if next != nil {
			next.refs.Add(1)
		}
		if old != nil {
			old.release()
		}
		m.pages[i] = next
		if runStart < 0 {
			runStart = i
		}
	}
	flush(len(m.pages))
	m.Stats = s.stats
}

// Release returns the snapshot's page references to the pool. The
// snapshot must not be restored afterwards. Optional: an unreleased
// snapshot is reclaimed by the garbage collector, just not recycled.
func (s *Snapshot) Release() {
	for i, pg := range s.pages {
		if pg != nil {
			pg.release()
			s.pages[i] = nil
		}
	}
}

// Fork returns a new Memory sharing this one's current contents
// copy-on-write, in O(touched pages). Both memories may then be read
// and written freely, from different goroutines; a write to a shared
// page copies just that page. Statistics are inherited; the OnStore
// hook is not (the fork's observer is the forker's business).
func (m *Memory) Fork() *Memory {
	f := &Memory{pages: make([]*page, len(m.pages)), size: m.size, Stats: m.Stats}
	for i, pg := range m.pages {
		if pg != nil {
			pg.refs.Add(1)
			f.pages[i] = pg
		}
	}
	return f
}

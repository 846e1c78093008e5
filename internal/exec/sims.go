package exec

import (
	"context"

	"risc1/internal/machine"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// simKey identifies one worker machine: the backend plus its normalized
// build options. Fuel is not part of the key — it is re-applied on
// every checkout, so jobs with different budgets share a machine.
type simKey struct {
	backend string
	opts    machine.Options
}

// Sims is one worker's simulator cache. Building a simulator allocates
// its whole memory image (1 MiB by default), so workers keep one
// machine per (backend, configuration) and reuse it across jobs: Reset
// and Restore fully replace memory, registers and statistics, which is
// what makes reuse safe (pinned by the cross-job leakage tests).
//
// A Sims is confined to its worker goroutine and must not be shared.
// The exception is progs and images, the pool-wide caches every
// worker's Sims points at: compiled programs and warm-start snapshots
// are immutable, so sharing them across workers is safe, and a sweep
// that submits the same source many times compiles it once.
type Sims struct {
	machines map[simKey]machine.Machine
	progs    *rcache.Cache // shared, concurrency-safe; nil outside a pool
	images   *rcache.Cache // shared warm-start images; nil outside a pool
}

// NewSims returns an empty cache.
func NewSims() *Sims {
	return &Sims{machines: make(map[simKey]machine.Machine)}
}

// Machine returns the worker's simulator for the backend and options,
// building it on first use. The instruction budget is re-applied on
// every call rather than keyed, and options the backend ignores are
// normalized away, so equivalent requests share one machine. The caller
// still owns Reset (or Restore) and program loading.
func (s *Sims) Machine(b *machine.Backend, o machine.Options) machine.Machine {
	key := simKey{backend: b.Name, opts: b.Normalize(o)}
	key.opts.Fuel = 0
	m, ok := s.machines[key]
	if !ok {
		m = b.New(key.opts)
		s.machines[key] = m
	}
	m.SetMaxInstructions(o.Fuel)
	return m
}

// compiled is one level-1 cache entry: an immutable compiled program
// plus the report-ready compile artifacts, shared by every job that
// asks for the same (backend, source, options) combination.
type compiled struct {
	prog   machine.Program
	text   string
	passes []obs.PassStat
}

func (cp compiled) size() int64 {
	return cp.prog.Footprint() + int64(len(cp.text))
}

// Compile compiles MiniC for a backend through the pool's shared
// program cache: identical (backend, source, options) tuples compile
// once pool-wide, with concurrent identical compiles collapsed to a
// single run. Outside a pool (nil receiver or no cache) it compiles
// directly. The returned program and pass list are shared and must be
// treated as read-only. Front-end failures return a *CompileError.
func (s *Sims) Compile(ctx context.Context, b *machine.Backend, source string, o machine.Options) (machine.Program, string, []obs.PassStat, error) {
	o = b.Normalize(o)
	if s == nil || s.progs == nil {
		prog, text, passes, err := b.Compile(source, o)
		if err != nil {
			return nil, "", nil, &CompileError{Err: err}
		}
		return prog, text, passes, nil
	}
	key := rcache.NewKey("risc1.compile/v2").
		Str("machine", b.Name).
		Str("source", source).
		Int("opt", int64(o.Opt)).
		Bool("delaySlots", o.DelaySlots).
		Sum()
	v, _, err := s.progs.Do(ctx, key, func() (any, int64, error) {
		prog, text, passes, err := b.Compile(source, o)
		if err != nil {
			return nil, 0, &CompileError{Err: err}
		}
		cp := compiled{prog: prog, text: text, passes: passes}
		return cp, cp.size(), nil
	})
	if err != nil {
		return nil, "", nil, err
	}
	cp := v.(compiled)
	return cp.prog, cp.text, cp.passes, nil
}

// Image is one warm-start cache entry: the compiled program plus a
// machine snapshot taken right after the prelude (Reset + LoadInto), so
// a request re-enters the initialized machine in O(touched pages)
// instead of re-zeroing memory and re-copying every segment. The
// snapshot is immutable and restore shares its pages copy-on-write, so
// one image serves any number of concurrent workers.
type Image struct {
	Prog   machine.Program
	Text   string
	Passes []obs.PassStat
	Snap   machine.Snapshot
}

// imageOptions normalizes options down to what identifies a warm-start
// image: fuel is per-run and the predecoded icache is host machinery,
// so neither reaches the snapshot.
func imageOptions(b *machine.Backend, o machine.Options) machine.Options {
	o = b.Normalize(o)
	o.Fuel = 0
	o.NoICache = false
	return o
}

// ImageFor compiles source and builds (or fetches) its warm-start image
// for the given backend and options. Identical (backend, source,
// options) tuples share one image pool-wide; concurrent identical
// requests collapse to a single build. Outside a pool (nil receiver or
// no shared cache) it builds a fresh image.
func (s *Sims) ImageFor(ctx context.Context, b *machine.Backend, source string, o machine.Options) (Image, error) {
	io := imageOptions(b, o)
	build := func() (Image, int64, error) {
		prog, text, passes, err := s.Compile(ctx, b, source, io)
		if err != nil {
			return Image{}, 0, err
		}
		scratch := b.New(io)
		scratch.Reset(prog.Entry())
		if err := prog.LoadInto(scratch.Mem()); err != nil {
			return Image{}, 0, err
		}
		img := Image{Prog: prog, Text: text, Passes: passes, Snap: scratch.Snapshot()}
		size := int64(img.Snap.MemPages())*mem.PageSize + compiled{prog: prog, text: text}.size()
		return img, size, nil
	}
	if s == nil || s.images == nil {
		img, _, err := build()
		return img, err
	}
	key := rcache.NewKey("risc1.image/v2").
		Str("machine", b.Name).
		Str("source", source).
		Int("opt", int64(io.Opt)).
		Bool("delaySlots", io.DelaySlots).
		Int("windows", int64(io.Windows)).
		Bool("noWindows", io.NoWindows).
		Int("memSize", int64(io.MemSize)).
		Sum()
	v, _, err := s.images.Do(ctx, key, func() (any, int64, error) {
		img, size, err := build()
		if err != nil {
			return nil, 0, err
		}
		return img, size, nil
	})
	if err != nil {
		return Image{}, err
	}
	return v.(Image), nil
}

// NewMachine compiles source (through the shared caches when attached)
// and returns a fresh, paused machine positioned at the program entry,
// plus the compiled program for symbol lookup. The machine is restored
// from the pool-wide warm-start image, so building a long-lived debug
// session costs O(touched pages) after the first request for a given
// program. The caller owns the machine outright — it is not a pooled
// worker simulator — and may step it, attach observers, and hold it for
// as long as the session lives.
func (s *Sims) NewMachine(ctx context.Context, b *machine.Backend, source string, o machine.Options) (machine.Machine, machine.Program, error) {
	img, err := s.ImageFor(ctx, b, source, o)
	if err != nil {
		return nil, nil, err
	}
	m := b.New(b.Normalize(o))
	m.Restore(img.Snap)
	return m, img.Prog, nil
}

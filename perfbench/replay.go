package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"risc1/internal/asm"
	"risc1/internal/cc"
	"risc1/internal/cc/ir"
	"risc1/internal/cc/opt"
	"risc1/internal/exec"
	"risc1/internal/machine"
	"risc1/internal/mem"
	"risc1/internal/obs"
	"risc1/internal/rcache"
	"risc1/internal/rv32"
	"risc1/internal/vax"
)

// The replay serves requests in-process through the same public layer
// calls risc1-serve makes — request decode, Spec.CacheKey, the level-2
// rcache.Cache, exec.Pool dispatch, the program and image caches, the
// compiler stages, the assemblers, mem snapshot/restore, the simulator,
// BuildReport and the response encoding — with a span around each call.
// It re-implements the glue the server keeps private, so each stage can
// be timed on its own: Spec.Run's warm-start path, exec.Sims' image and
// program caches with their keys and entry sizes, the compile pipeline
// inside machine.Backend.Compile with opt.Optimize's fixpoint loop, the
// server's response encoding and its default caps. A traced run fails
// unless the replay reproduces every served response byte for byte, so
// the copy cannot drift from the server unnoticed.

// Server defaults the replay mirrors (risc1-serve with default flags).
const (
	serveMaxFuel    = 1 << 26
	serveMaxTimeout = 10 * time.Second
	resultCacheSize = 256 << 20
	progCacheSize   = 64 << 20
	imageCacheSize  = 256 << 20
)

// runResponse mirrors the v1 run-response body the server encodes.
type runResponse struct {
	Schema string      `json:"schema"`
	ID     string      `json:"id,omitempty"`
	Status string      `json:"status,omitempty"`
	Value  *int32      `json:"value,omitempty"`
	Report *obs.Report `json:"report,omitempty"`
}

// engine is one in-process server: its caches and worker pool.
type engine struct {
	tr                   *tracer
	pool                 *exec.Pool
	results, progs, imgs *rcache.Cache
	// pages collects mem.TouchedPages after each run (traced runs only).
	pages []float64
	// instr and runNS total each machine's simulated instructions and
	// simulation time.
	instr map[string]uint64
	runNS map[string]int64
}

// newEngine builds an engine with the server's default pool: one worker
// per CPU.
func newEngine(tr *tracer) *engine {
	return &engine{
		tr:      tr,
		pool:    exec.NewPool(exec.Config{Workers: runtime.NumCPU()}),
		results: rcache.New(resultCacheSize),
		progs:   rcache.New(progCacheSize),
		imgs:    rcache.New(imageCacheSize),
		instr:   map[string]uint64{},
		runNS:   map[string]int64{},
	}
}

func (e *engine) close() { e.pool.Close() }

// served is one replayed request's outcome.
type served struct {
	value        int32
	instructions uint64
	body         []byte // the encoded response
	total        time.Duration
}

// ran is a finished run, the level-2 cache's value.
type ran struct {
	value int32
	rep   obs.Report
}

// guestProgram is what every assembler's program offers the loader.
type guestProgram interface {
	LoadInto(m *mem.Memory) error
	Symbol(name string) (uint32, bool)
}

// compiled is a program-cache entry.
type compiled struct {
	prog   guestProgram
	entry  uint32
	passes []obs.PassStat
	// size is what exec charges the program cache for the entry: the
	// program's machine.Program.Footprint plus its assembly text.
	size int64
}

// image is an image-cache entry: the program and its warm-start snapshot.
type image struct {
	compiled
	snap machine.Snapshot
}

// dispatchProbe times Pool.Submit→Result of n no-op jobs.
func (e *engine) dispatchProbe(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		sp := e.tr.begin("exec.noop", -1, -1)
		tk, err := e.pool.Submit(ctx, exec.Job{Fn: func(context.Context, *exec.Sims) (any, error) { return nil, nil }})
		if err != nil {
			return err
		}
		if _, err := tk.Result(ctx); err != nil {
			return err
		}
		e.tr.end(sp)
	}
	return nil
}

// serve replays one request under id.
func (e *engine) serve(ctx context.Context, id int, body []byte) (served, error) {
	tr := e.tr
	start := time.Now()
	root := tr.begin("serve.request", id, -1)

	sp := tr.begin("serve.decode", id, root)
	var req runRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return served{}, err
	}
	name, err := machine.Canonical(req.Machine)
	if err != nil {
		return served{}, err
	}
	spec := exec.Spec{Name: req.Name, Machine: name, Source: req.Source, Opt: 1, DelaySlots: true, Fuel: serveMaxFuel}
	tr.end(sp)

	sp = tr.begin("rcache.key", id, root)
	key := spec.CacheKey(serveMaxTimeout)
	tr.end(sp)

	sp = tr.begin("rcache.do", id, root)
	v, outcome, err := e.results.Do(ctx, key, func() (any, int64, error) {
		r, err := e.execute(ctx, id, sp, spec)
		if err != nil {
			return nil, 0, err
		}
		// The server sizes each stored result by its report's JSON.
		s := tr.begin("obs.report_size", id, sp)
		b, err := r.rep.JSON()
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		return r, int64(len(b)) + 256, nil
	})
	tr.endArg(sp, string(outcome))
	if err != nil {
		return served{}, err
	}
	r := v.(ran)

	sp = tr.begin("obs.report_json", id, root)
	val := r.value
	rep := r.rep
	rep.Exec = &obs.ExecStat{Attempts: 1, FuelLimit: spec.Fuel}
	out, err := json.MarshalIndent(runResponse{Schema: "risc1.run-response/v1", Status: "ok", Value: &val, Report: &rep}, "", "  ")
	tr.end(sp)
	if err != nil {
		return served{}, err
	}
	tr.end(root)
	return served{
		value:        r.value,
		instructions: r.rep.Totals.Instructions,
		body:         append(out, '\n'),
		total:        time.Since(start),
	}, nil
}

// execute is the level-2 miss path: one pool job that fetches the warm
// image, restores it, simulates and builds the report.
func (e *engine) execute(ctx context.Context, id, parent int, spec exec.Spec) (ran, error) {
	tr := e.tr
	sp := tr.begin("exec.submit", id, parent)
	submitted := time.Now()
	var r ran
	tk, err := e.pool.Submit(ctx, exec.Job{Key: spec.Name, Timeout: serveMaxTimeout,
		Fn: func(ctx context.Context, sims *exec.Sims) (any, error) {
			began := time.Now()
			tr.add("exec.queue", id, sp, submitted, began)
			job := tr.begin("exec.job", id, sp)
			defer tr.end(job)
			var err error
			r, err = e.run(ctx, id, job, spec, sims)
			return nil, err
		}})
	if err != nil {
		return ran{}, err
	}
	res, err := tk.Result(ctx)
	tr.end(sp)
	if err != nil {
		return ran{}, err
	}
	return r, res.Err
}

// run is Spec.Run's warm-start path with each layer call timed.
func (e *engine) run(ctx context.Context, id, parent int, spec exec.Spec, sims *exec.Sims) (ran, error) {
	tr := e.tr
	b, _ := machine.Lookup(spec.Machine)
	o := b.Normalize(spec.Options())
	m := sims.Machine(b, o)

	img, err := e.image(ctx, id, parent, b, spec.Source, o)
	if err != nil {
		return ran{}, err
	}
	sp := tr.begin("mem.restore", id, parent)
	m.Restore(img.snap)
	tr.end(sp)

	sp = tr.begin("machine."+b.Name+".run", id, parent)
	t0 := time.Now()
	err = m.RunContext(ctx)
	runNS := time.Since(t0).Nanoseconds()
	tr.end(sp)
	if err != nil {
		return ran{}, err
	}
	pages := m.Mem().TouchedPages()
	addr, ok := img.prog.Symbol("result")
	if !ok {
		return ran{}, fmt.Errorf("replay: no global named result")
	}
	w, err := m.Mem().LoadWord(addr)
	if err != nil {
		return ran{}, err
	}

	sp = tr.begin("obs.build_report", id, parent)
	rep := m.BuildReport(spec.Name)
	b.ScrubReport(&rep)
	rep.Config.Optimized = o.DelaySlots
	rep.Config.OptLevel = o.Opt
	rep.Config.Passes = img.passes
	tr.end(sp)
	if tr.on {
		e.pages = append(e.pages, float64(pages))
		e.instr[b.Name] += rep.Totals.Instructions
		e.runNS[b.Name] += runNS
	}
	return ran{value: int32(w), rep: rep}, nil
}

// image is exec.Sims.ImageFor: the warm-start image cache in front of the
// program cache, building the snapshot on a miss.
func (e *engine) image(ctx context.Context, id, parent int, b *machine.Backend, source string, o machine.Options) (image, error) {
	tr := e.tr
	io := b.Normalize(o)
	io.Fuel, io.NoICache = 0, false
	key := rcache.NewKey("risc1.image/v2").
		Str("machine", b.Name).
		Str("source", source).
		Int("opt", int64(io.Opt)).
		Bool("delaySlots", io.DelaySlots).
		Int("windows", int64(io.Windows)).
		Bool("noWindows", io.NoWindows).
		Int("memSize", int64(io.MemSize)).
		Sum()
	sp := tr.begin("exec.image", id, parent)
	v, outcome, err := e.imgs.Do(ctx, key, func() (any, int64, error) {
		cp, err := e.compile(ctx, id, sp, b, source, io)
		if err != nil {
			return nil, 0, err
		}
		s := tr.begin("mem.load", id, sp)
		scratch := b.New(io)
		scratch.Reset(cp.entry)
		err = cp.prog.LoadInto(scratch.Mem())
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		s = tr.begin("mem.snapshot", id, sp)
		snap := scratch.Snapshot()
		tr.end(s)
		// exec charges an image its snapshot's pages plus the program's size.
		return image{compiled: cp, snap: snap}, int64(snap.MemPages())*mem.PageSize + cp.size, nil
	})
	tr.endArg(sp, string(outcome))
	if err != nil {
		return image{}, err
	}
	return v.(image), nil
}

// compile is the program cache in front of the compiler pipeline that
// machine.Backend.Compile runs: parse, lower, the opt passes to a
// fixpoint, code generation and assembly.
func (e *engine) compile(ctx context.Context, id, parent int, b *machine.Backend, source string, o machine.Options) (compiled, error) {
	tr := e.tr
	key := rcache.NewKey("risc1.compile/v2").
		Str("machine", b.Name).
		Str("source", source).
		Int("opt", int64(o.Opt)).
		Bool("delaySlots", o.DelaySlots).
		Sum()
	sp := tr.begin("exec.compile", id, parent)
	v, outcome, err := e.progs.Do(ctx, key, func() (any, int64, error) {
		cp, err := e.pipeline(id, sp, b.Name, source, o)
		if err != nil {
			return nil, 0, err
		}
		// exec charges a program its Footprint plus its assembly text.
		return cp, cp.size, nil
	})
	tr.endArg(sp, string(outcome))
	if err != nil {
		return compiled{}, err
	}
	return v.(compiled), nil
}

func (e *engine) pipeline(id, parent int, machineName, source string, o machine.Options) (compiled, error) {
	tr := e.tr
	sp := tr.begin("cc.parse", id, parent)
	ast, err := cc.Parse(source)
	tr.end(sp)
	if err != nil {
		return compiled{}, err
	}
	sp = tr.begin("cc.lower", id, parent)
	prog, err := cc.Lower(ast)
	tr.end(sp)
	if err != nil {
		return compiled{}, err
	}
	stats := e.optimize(id, parent, prog, o.Opt)

	sp = tr.begin("cc.codegen."+machineName, id, parent)
	var text string
	switch machineName {
	case "risc1":
		text, err = cc.GenRISC(prog)
	case "cisc":
		text, err = cc.GenVAX(prog)
	case "rv32":
		text, err = cc.GenRV32(prog)
	default:
		err = fmt.Errorf("replay: no code generator for %q", machineName)
	}
	tr.end(sp)
	if err != nil {
		return compiled{}, err
	}

	cp := compiled{passes: stats}
	sp = tr.begin("asm."+machineName, id, parent)
	switch machineName {
	case "risc1":
		var p *asm.Program
		p, err = asm.Assemble(text, asm.Options{Optimize: o.DelaySlots})
		if err == nil {
			cp.prog, cp.entry, cp.size = p, p.Entry, footprint(p.Segments, len(p.Symbols))
		}
	case "cisc":
		var p *vax.Program
		p, err = vax.Assemble(text)
		if err == nil {
			cp.prog, cp.entry, cp.size = p, p.Entry, footprint(p.Segments, len(p.Symbols))
		}
	case "rv32":
		var p *rv32.Program
		p, err = rv32.Assemble(text)
		if err == nil {
			cp.prog, cp.entry, cp.size = p, p.Entry, footprint(p.Segments, len(p.Symbols))
		}
	}
	tr.end(sp)
	cp.size += int64(len(text))
	return cp, err
}

// footprint is machine.Program.Footprint, which the machine package's
// program adapters compute alike for all three assemblers: a fixed 512
// bytes, the segment data and 32 bytes per symbol. The assemblers'
// segment types share one shape.
func footprint[S ~struct {
	Addr uint32
	Data []byte
}](segs []S, symbols int) int64 {
	n := int64(512)
	for _, s := range segs {
		n += int64(len(asm.Segment(s).Data))
	}
	return n + int64(symbols)*32
}

// optimize is opt.Optimize with a span around each pass of each round.
func (e *engine) optimize(id, parent int, p *ir.Program, level int) []obs.PassStat {
	if level <= 0 {
		return nil
	}
	rewrites := make([]int, len(opt.Passes))
	for round := 0; round < 50; round++ {
		changed := 0
		for i, ps := range opt.Passes {
			sp := e.tr.begin("cc.opt."+ps.Name, id, parent)
			for _, f := range p.Funcs {
				n := ps.Run(f)
				rewrites[i] += n
				changed += n
			}
			e.tr.end(sp)
		}
		if changed == 0 {
			break
		}
	}
	var out []obs.PassStat
	for i, ps := range opt.Passes {
		if rewrites[i] > 0 {
			out = append(out, obs.PassStat{Name: ps.Name, Rewrites: rewrites[i]})
		}
	}
	return out
}

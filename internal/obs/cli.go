package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// TraceFormat resolves the trace format for an output path. An explicit
// format wins; otherwise the file extension decides: .jsonl/.ndjson →
// jsonl, .json/.trace → chrome (trace_event, Perfetto-loadable),
// anything else → text.
func TraceFormat(path, explicit string) (string, error) {
	switch explicit {
	case "text", "jsonl", "chrome":
		return explicit, nil
	case "":
	default:
		return "", fmt.Errorf("unknown trace format %q (want text, jsonl or chrome)", explicit)
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".jsonl", ".ndjson":
		return "jsonl", nil
	case ".json", ".trace":
		return "chrome", nil
	}
	return "text", nil
}

// NewSink builds the sink for a resolved format. nsPerCycle and
// symbolize configure the Chrome sink (simulated-time scaling and call
// slice naming) and are ignored by the others.
func NewSink(format string, w io.Writer, nsPerCycle float64, symbolize func(pc uint32) (string, bool)) (Sink, error) {
	switch format {
	case "text":
		return NewTextSink(w), nil
	case "jsonl":
		return NewJSONLSink(w), nil
	case "chrome":
		s := NewChromeSink(w)
		s.NSPerCycle = nsPerCycle
		s.Symbolize = symbolize
		return s, nil
	}
	return nil, fmt.Errorf("unknown trace format %q (want text, jsonl or chrome)", format)
}

// CLIOptions are the observability flags the run commands share.
type CLIOptions struct {
	TraceN      uint64 // -trace: print only the first N events
	TraceOut    string // -trace-out: stream the trace to this file
	TraceFormat string // -trace-format: text, jsonl or chrome
	Profile     bool   // -profile or -report: run the guest profiler
	NSPerCycle  float64
}

// CLIRun is the observer of one command-line run.
type CLIRun struct {
	// Observer is nil when no flag asked for tracing or profiling.
	Observer *Observer
	file     *os.File
}

// NewCLIRun builds the observer the options ask for: a profiler started
// at entry, and a tracer writing to the trace file (format from its
// extension unless TraceFormat is set) or to stdout, naming call
// targets from symtab.
func NewCLIRun(opts CLIOptions, entry uint32, symtab *SymTab) (*CLIRun, error) {
	needTrace := opts.TraceOut != "" || opts.TraceN > 0
	if !needTrace && !opts.Profile {
		return &CLIRun{}, nil
	}
	r := &CLIRun{Observer: &Observer{}}
	if opts.Profile {
		r.Observer.Prof = NewProfiler()
		r.Observer.Prof.Start(entry)
	}
	if needTrace {
		w := os.Stdout
		format := "text"
		var err error
		if opts.TraceOut != "" {
			if format, err = TraceFormat(opts.TraceOut, opts.TraceFormat); err != nil {
				return nil, err
			}
			if r.file, err = os.Create(opts.TraceOut); err != nil {
				return nil, err
			}
			w = r.file
		} else if opts.TraceFormat != "" {
			if format, err = TraceFormat("", opts.TraceFormat); err != nil {
				return nil, err
			}
		}
		symbolize := func(pc uint32) (string, bool) {
			name, off, ok := symtab.Lookup(pc)
			return name, ok && off == 0
		}
		sink, err := NewSink(format, w, opts.NSPerCycle, symbolize)
		if err != nil {
			return nil, err
		}
		r.Observer.Tracer = NewTracer(0, sink)
		r.Observer.Tracer.Limit = opts.TraceN
	}
	return r, nil
}

// Finish ends the run: it flushes the observer, warning on stderr under
// the command's name if that fails, and closes the trace file. When the
// run failed it dumps the last trace events to stderr. It returns the
// error the command should exit with.
func (r *CLIRun) Finish(cmd string, runErr error) error {
	o := r.Observer
	if o == nil {
		return runErr
	}
	if err := o.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, cmd+": trace:", err)
	}
	if r.file != nil {
		if err := r.file.Close(); err != nil {
			return err
		}
	}
	if runErr != nil && o.Tracer != nil {
		fmt.Fprintln(os.Stderr, "last events before the fault:")
		ts := NewTextSink(os.Stderr)
		for _, ev := range o.Tracer.Tail(16) {
			ts.Emit(ev)
		}
		ts.Close()
	}
	return runErr
}

// WriteOut writes data to path, with "-" meaning stdout.
func WriteOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"sendervalid/internal/trace"
	"sendervalid/internal/wal"
)

// Trace holds the tracing flags shared by the serving and evaluation
// commands — -trace-file, -trace-sample, -trace-slow. Open turns them
// into a configured trace.Tracer whose span stream is a checksummed
// WAL (the same framing as the query log, readable by cmd/analyze
// -trace).
type Trace struct {
	TraceFile   string
	TraceSample float64
	TraceSlow   time.Duration
}

// Register binds the tracing flags on fs.
func (f *Trace) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceFile, "trace-file", "",
		"span output: append sampled spans as checksummed WAL records (JSONL payload, readable by cmd/analyze -trace)")
	fs.Float64Var(&f.TraceSample, "trace-sample", 0,
		"span head-sampling rate in [0,1]; error and over-threshold spans are kept regardless")
	fs.DurationVar(&f.TraceSlow, "trace-slow", 0,
		"keep every span at least this slow, sampled or not (0 disables slow promotion)")
}

// Tracing is a live tracer plus its backing span WAL. The zero value
// (and the result of opening disabled flags) carries a nil Tracer,
// which every instrumented call site treats as tracing-off.
type Tracing struct {
	Tracer *trace.Tracer
	wal    *wal.WAL
	logf   func(format string, args ...any)
}

// Open builds the tracer described by the flags. Disabled flags yield
// a Tracing with a nil Tracer; logf receives the one-line torn-tail
// notice when the span WAL needed crash recovery, and Close's report
// when the span stream cannot be closed cleanly.
func (f *Trace) Open(logf func(format string, args ...any)) (*Tracing, error) {
	if f.TraceFile == "" && f.TraceSample <= 0 && f.TraceSlow <= 0 {
		return &Tracing{}, nil
	}
	if f.TraceSample < 0 || f.TraceSample > 1 {
		return nil, fmt.Errorf("-trace-sample %g outside [0,1]", f.TraceSample)
	}
	var out io.Writer
	var w *wal.WAL
	if f.TraceFile != "" {
		var err error
		w, err = wal.Open(f.TraceFile, wal.Options{})
		if err != nil {
			return nil, fmt.Errorf("opening trace file: %w", err)
		}
		if rec := w.Recovered(); rec.Truncated {
			logf("trace file %s had a torn tail; %d records salvaged, %d bytes truncated",
				f.TraceFile, rec.Records, rec.DroppedBytes)
		}
		out = w
	}
	return &Tracing{
		Tracer: trace.New(trace.Config{SampleRate: f.TraceSample, SlowThreshold: f.TraceSlow, Output: out}),
		wal:    w,
		logf:   logf,
	}, nil
}

// Close drains the exporter and closes the span WAL, so a run that
// ends early still keeps its sampled spans. Safe on the zero value.
func (t *Tracing) Close() {
	t.Tracer.Close()
	if t.wal != nil {
		if err := t.wal.Close(); err != nil {
			t.logf("closing trace file: %v", err)
		}
	}
}

// Package trace is a stdlib-only span tracer for the serving and
// evaluation hot paths: 128-bit trace IDs, parent/child spans with
// bounded attributes, head-based probabilistic sampling
// with tail promotion for errors and slow spans, and a non-blocking
// bounded exporter that writes JSONL span records (through any
// io.Writer — in practice an internal/wal WAL, one record per Write).
//
// The design constraint is the same one internal/telemetry lives
// under: instrumentation is compiled into every hot path and must
// cost nothing when idle. A nil *Tracer is fully functional (every
// method no-ops and Start returns a nil *Span, whose methods also
// no-op), so call sites never guard; an enabled tracer's unsampled
// path recycles spans through a sync.Pool and stores the context
// linkage inside the pooled span itself, so starting and ending an
// unsampled span performs zero heap allocations. Sampled spans pay
// for serialization only in the exporter goroutine, never inline.
//
// A span handed to End (and any context derived from it via Start)
// must not be used afterwards: spans are pooled and End recycles
// them. Cross-goroutine fan-out uses Span.Link, a value snapshot of
// the span's identity that survives the parent's recycling.
package trace

import (
	"context"
	"encoding/hex"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"sendervalid/internal/telemetry"
)

// TraceID identifies one trace: 128 random bits, hex-rendered.
type TraceID [16]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// SpanID identifies one span within a trace: 64 random bits.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// Config configures a Tracer.
type Config struct {
	// SampleRate is the head-sampling probability for new traces, in
	// [0, 1]. Zero samples nothing (error/slow tail promotion still
	// applies); 1 samples everything.
	SampleRate float64
	// SlowThreshold promotes any span at least this slow to export
	// even when its trace was not head-sampled, and admits it to the
	// slow-span ring. Zero disables slow promotion.
	SlowThreshold time.Duration
	// Output receives one serialized JSONL record per exported span.
	// Writes happen on the exporter goroutine only, one record per
	// Write call — exactly the contract (*wal.WAL).Write offers. Nil
	// keeps spans in the in-memory rings only.
	Output io.Writer
}

// queueDepth bounds spans queued for the exporter. When the queue is
// full finished spans are dropped (counted), never blocked on.
const queueDepth = 1024

// Sizes of the in-memory rings /debug/traces serves: recently exported
// spans and slow spans.
const (
	recentSpans = 256
	slowSpans   = 64
)

// Tracer creates and exports spans. Create with New; a nil *Tracer
// is a valid disabled tracer.
type Tracer struct {
	sampleRate float64
	slow       time.Duration
	out        io.Writer

	pool sync.Pool
	ch   chan *Span
	stop chan struct{}
	done chan struct{}

	closed atomic.Bool

	recent   *recordRing
	slowRing *recordRing

	metrics tracerMetrics
}

// tracerMetrics are the tracer's always-on instruments, published by
// RegisterMetrics.
type tracerMetrics struct {
	started      telemetry.Counter // spans started
	sampled      telemetry.Counter // root spans head-sampled
	exported     telemetry.Counter // spans serialized (or ringed)
	dropped      telemetry.Counter // finished spans dropped on a full queue
	promotedSlow telemetry.Counter // unsampled spans exported for slowness
	promotedErr  telemetry.Counter // unsampled spans exported for an error
	writeErrs    telemetry.Counter // exporter Output write failures
}

// New creates a Tracer from cfg and starts its exporter goroutine.
// Call Close to flush and stop it.
func New(cfg Config) *Tracer {
	t := &Tracer{
		sampleRate: cfg.SampleRate,
		slow:       cfg.SlowThreshold,
		out:        cfg.Output,
		ch:         make(chan *Span, queueDepth),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		recent:     newRecordRing(recentSpans),
		slowRing:   newRecordRing(slowSpans),
	}
	t.pool.New = func() any { return new(Span) }
	go t.exporter()
	return t
}

// Close drains queued spans, stops the exporter, and returns. Spans
// ended after Close are dropped (the exporter queue is never closed,
// so late End calls stay safe). Close is idempotent and safe on a
// nil tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if !t.closed.CompareAndSwap(false, true) {
		<-t.done
		return nil
	}
	close(t.stop)
	<-t.done
	return nil
}

// sampleHead makes the head-sampling decision for a new trace.
func (t *Tracer) sampleHead() bool {
	if t.sampleRate >= 1 {
		return true
	}
	if t.sampleRate <= 0 {
		return false
	}
	return rand.Float64() < t.sampleRate
}

// newTraceID returns 128 random bits.
func newTraceID() TraceID {
	var id TraceID
	a, b := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(a >> (8 * i))
		id[8+i] = byte(b >> (8 * i))
	}
	return id
}

// newSpanID returns 64 random bits.
func newSpanID() SpanID {
	var id SpanID
	v := rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (8 * i))
	}
	return id
}

// newSpan takes a span from the pool and initializes the fields every
// span needs; identity fields are the caller's.
func (t *Tracer) newSpan(name string) *Span {
	s := t.pool.Get().(*Span)
	s.tracer = t
	s.name = name
	s.start = time.Now()
	s.id = newSpanID()
	s.parent = SpanID{}
	s.head = false
	s.hasErr = false
	s.errMsg = ""
	s.nattrs = 0
	s.exID = ""
	s.ended = false
	t.metrics.started.Inc()
	return s
}

// Start begins a new root span (a fresh trace) and returns a context
// carrying it for child spans. On a nil tracer it returns (ctx, nil).
// The returned context is only valid until the span's End.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.newSpan(name)
	s.trace = newTraceID()
	if s.head = t.sampleHead(); s.head {
		t.metrics.sampled.Inc()
	}
	s.ctx = spanCtx{Context: ctx, sp: s}
	return &s.ctx, s
}

// StartSpan begins a detached root span with no context linkage — for
// call sites that have no context to thread (the DNS packet loop).
// Child spans hang off it via Span.Link. Nil tracer returns nil.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := t.newSpan(name)
	s.trace = newTraceID()
	if s.head = t.sampleHead(); s.head {
		t.metrics.sampled.Inc()
	}
	return s
}

// ctxKey keys the current span in a context.
type ctxKey struct{}

// spanCtx carries a span without a context.WithValue allocation: it
// lives inside the pooled Span, so deriving a child context costs
// nothing. It is invalidated when its span ends.
type spanCtx struct {
	context.Context
	sp *Span
}

// Value returns the embedded span for the trace key and defers to the
// parent context otherwise.
func (c *spanCtx) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.sp
	}
	return c.Context.Value(key)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start begins a child of the span carried by ctx. When ctx carries
// no span (or tracing is disabled) it returns (ctx, nil) — the
// nil-span methods then no-op, so call sites never branch.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.newSpan(name)
	s.trace = parent.trace
	s.parent = parent.id
	s.head = parent.head
	s.ctx = spanCtx{Context: ctx, sp: s}
	return &s.ctx, s
}

// Link is a value snapshot of a span's identity, safe to hand to
// another goroutine after the span itself has ended and been
// recycled. The zero Link starts nil spans.
type Link struct {
	tracer *Tracer
	trace  TraceID
	parent SpanID
	head   bool
}

// Link snapshots the span's identity for cross-goroutine children.
func (s *Span) Link() Link {
	if s == nil {
		return Link{}
	}
	return Link{tracer: s.tracer, trace: s.trace, parent: s.id, head: s.head}
}

// Start begins a child span under the linked parent. A zero Link
// returns nil.
func (l Link) Start(name string) *Span {
	if l.tracer == nil {
		return nil
	}
	s := l.tracer.newSpan(name)
	s.trace = l.trace
	s.parent = l.parent
	s.head = l.head
	return s
}

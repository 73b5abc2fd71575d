package trace

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/leaktest"
)

// syncBuffer is a locked bytes.Buffer usable as a tracer Output while
// the test also reads it before Close.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// collect closes the tracer (flushing the exporter) and decodes every
// exported record.
func collect(t *testing.T, tr *Tracer, out *syncBuffer) []Record {
	t.Helper()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var recs []Record
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec, err := ParseRecord(sc.Bytes())
		if err != nil {
			t.Fatalf("undecodable span line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

var hexTrace = regexp.MustCompile(`^[0-9a-f]{32}$`)
var hexSpan = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestNilTracerNoops pins the disabled-tracer contract every call site
// relies on: a nil *Tracer (and the nil spans it hands out) accepts
// the full API without branching or panicking.
func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	cctx, sp := tr.Start(ctx, "root")
	if cctx != ctx {
		t.Error("nil tracer Start must return the caller's context unchanged")
	}
	if sp != nil {
		t.Error("nil tracer Start must return a nil span")
	}
	if tr.StartSpan("detached") != nil {
		t.Error("nil tracer StartSpan must return nil")
	}
	if FromContext(ctx) != nil {
		t.Error("FromContext on a bare context must return nil")
	}
	if _, sp := Start(ctx, "child"); sp != nil {
		t.Error("package Start without a parent span must return nil")
	}
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetError(errors.New("x"))
	if id := sp.ExemplarID(); id != "" {
		t.Errorf("nil span ExemplarID = %q, want empty", id)
	}
	if l := sp.Link(); l.Start("child") != nil {
		t.Error("zero Link must start nil spans")
	}
	sp.End()
	sp.End() // double End stays safe
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}
}

// TestExporterRoundTrip drives sampled spans end to end: root and
// child via context, attrs (string and int), and an error —
// every record must come back parseable with the identity and
// annotation fields intact.
func TestExporterRoundTrip(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	out := &syncBuffer{}
	tr := New(Config{SampleRate: 1, Output: out})

	ctx, root := tr.Start(context.Background(), "spf.check")
	if root == nil || !root.head {
		t.Fatal("sample=1 root span not sampled")
	}
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	rootTrace := root.trace.String()
	rootID := root.id.String()
	root.SetAttr("domain", "example.com")
	root.SetInt("lookups", 7)

	_, child := Start(ctx, "resolver.exchange")
	if child == nil {
		t.Fatal("child span nil under a sampled parent")
	}
	child.SetError(errors.New("boom"))
	child.End()
	root.End()

	recs := collect(t, tr, out)
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want 2", len(recs))
	}
	// Export order is End order: child first.
	c, r := recs[0], recs[1]
	if c.Name != "resolver.exchange" || r.Name != "spf.check" {
		t.Fatalf("names = %q, %q", c.Name, r.Name)
	}
	if r.Trace != rootTrace || c.Trace != rootTrace {
		t.Errorf("trace IDs %q/%q, want both %q", r.Trace, c.Trace, rootTrace)
	}
	if !hexTrace.MatchString(r.Trace) || !hexSpan.MatchString(r.Span) {
		t.Errorf("malformed IDs trace=%q span=%q", r.Trace, r.Span)
	}
	if c.Parent != rootID {
		t.Errorf("child parent = %q, want %q", c.Parent, rootID)
	}
	if r.Parent != "" {
		t.Errorf("root has parent %q", r.Parent)
	}
	if got := r.Attr("domain"); got != "example.com" {
		t.Errorf("domain attr = %q", got)
	}
	if got := r.Attr("lookups"); got != "7" {
		t.Errorf("int attr serialized as %q, want \"7\"", got)
	}
	if c.Err != "boom" {
		t.Errorf("child err = %q", c.Err)
	}
	if r.Why != "" || c.Why != "" {
		t.Errorf("head-sampled spans carry why=%q/%q, want empty", r.Why, c.Why)
	}
	if tr.metrics.exported.Value() != 2 {
		t.Errorf("exported counter = %d, want 2", tr.metrics.exported.Value())
	}
}

// TestUnsampledSpansNotExported pins that at sample rate 0 a clean,
// fast span is recycled without reaching the output.
func TestUnsampledSpansNotExported(t *testing.T) {
	out := &syncBuffer{}
	tr := New(Config{SampleRate: 0, Output: out})
	ctx, sp := tr.Start(context.Background(), "quiet")
	if sp.head {
		t.Fatal("sample=0 span head-sampled")
	}
	if id := sp.ExemplarID(); id != "" {
		t.Errorf("unsampled ExemplarID = %q, want empty", id)
	}
	_, child := Start(ctx, "quiet.child")
	child.End()
	sp.End()
	if recs := collect(t, tr, out); len(recs) != 0 {
		t.Fatalf("unsampled run exported %d records", len(recs))
	}
	if tr.metrics.started.Value() != 2 {
		t.Errorf("started counter = %d, want 2", tr.metrics.started.Value())
	}
}

// TestTailPromotionError: an unsampled span that fails is exported
// anyway, tagged why=error.
func TestTailPromotionError(t *testing.T) {
	out := &syncBuffer{}
	tr := New(Config{SampleRate: 0, Output: out})
	sp := tr.StartSpan("probe.smtp")
	sp.SetError(errors.New("connection refused"))
	sp.End()
	recs := collect(t, tr, out)
	if len(recs) != 1 {
		t.Fatalf("exported %d records, want 1", len(recs))
	}
	if recs[0].Why != "error" {
		t.Errorf("why = %q, want error", recs[0].Why)
	}
	if recs[0].Err != "connection refused" {
		t.Errorf("err = %q", recs[0].Err)
	}
	if tr.metrics.promotedErr.Value() != 1 {
		t.Errorf("promoted_err = %d, want 1", tr.metrics.promotedErr.Value())
	}
}

// TestTailPromotionSlow: an unsampled span over the slow threshold is
// exported tagged why=slow and admitted to the slow-span ring.
func TestTailPromotionSlow(t *testing.T) {
	out := &syncBuffer{}
	tr := New(Config{SampleRate: 0, SlowThreshold: time.Nanosecond, Output: out})
	sp := tr.StartSpan("dns.serve")
	time.Sleep(time.Microsecond)
	sp.End()
	recs := collect(t, tr, out)
	if len(recs) != 1 {
		t.Fatalf("exported %d records, want 1", len(recs))
	}
	if recs[0].Why != "slow" {
		t.Errorf("why = %q, want slow", recs[0].Why)
	}
	if tr.metrics.promotedSlow.Value() != 1 {
		t.Errorf("promoted_slow = %d, want 1", tr.metrics.promotedSlow.Value())
	}
	if slow := tr.slowRing.snapshot(); len(slow) != 1 || slow[0].Name != "dns.serve" {
		t.Errorf("slow ring = %+v, want the one slow span", slow)
	}
}

// TestLinkCrossGoroutine pins the resolver's fan-out shape: the parent
// span ends (and is recycled) before a goroutine starts a child from
// its Link, and the child still lands in the right trace under the
// right parent.
func TestLinkCrossGoroutine(t *testing.T) {
	out := &syncBuffer{}
	tr := New(Config{SampleRate: 1, Output: out})
	_, sp := tr.Start(context.Background(), "resolver.exchange")
	wantTrace := sp.trace.String()
	wantParent := sp.id.String()
	link := sp.Link()
	sp.End() // parent recycled before the child starts

	done := make(chan struct{})
	go func() {
		defer close(done)
		w := link.Start("resolver.wire")
		if w == nil {
			t.Error("Link.Start returned nil on a live tracer")
			return
		}
		if !w.head {
			t.Error("linked child did not inherit the sampling decision")
		}
		w.End()
	}()
	<-done

	recs := collect(t, tr, out)
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want 2", len(recs))
	}
	var wire *Record
	for i := range recs {
		if recs[i].Name == "resolver.wire" {
			wire = &recs[i]
		}
	}
	if wire == nil {
		t.Fatal("no resolver.wire record exported")
	}
	if wire.Trace != wantTrace {
		t.Errorf("linked child trace = %q, want %q", wire.Trace, wantTrace)
	}
	if wire.Parent != wantParent {
		t.Errorf("linked child parent = %q, want %q", wire.Parent, wantParent)
	}
}

// TestExemplarIDStable: a sampled span renders its trace ID once and
// returns the same string thereafter.
func TestExemplarIDStable(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	defer tr.Close()
	sp := tr.StartSpan("x")
	id1 := sp.ExemplarID()
	if id1 != sp.trace.String() {
		t.Errorf("ExemplarID %q != trace ID %q", id1, sp.trace.String())
	}
	if id2 := sp.ExemplarID(); id2 != id1 {
		t.Errorf("ExemplarID changed between calls: %q then %q", id1, id2)
	}
	sp.End()
}

// TestAttrOverflowDropped: attributes beyond the fixed capacity are
// dropped silently, never reallocated.
func TestAttrOverflowDropped(t *testing.T) {
	out := &syncBuffer{}
	tr := New(Config{SampleRate: 1, Output: out})
	sp := tr.StartSpan("x")
	for i := 0; i < maxAttrs+5; i++ {
		sp.SetAttr(fmt.Sprintf("k%d", i), "v")
	}
	sp.End()
	recs := collect(t, tr, out)
	if len(recs) != 1 {
		t.Fatalf("exported %d records", len(recs))
	}
	if len(recs[0].Attrs) != maxAttrs {
		t.Errorf("kept %d attrs, want %d", len(recs[0].Attrs), maxAttrs)
	}
}

// gateWriter blocks each Write until released, so a test can hold the
// exporter mid-record and fill its queue deterministically.
type gateWriter struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.release
	return len(p), nil
}

// TestFullQueueDropsNotBlocks pins End's non-blocking contract: with
// the exporter wedged in a Write and the queue full, further spans are
// dropped (counted) without stalling the caller.
func TestFullQueueDropsNotBlocks(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	g := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	tr := New(Config{SampleRate: 1, Output: g})

	tr.StartSpan("a").End() // exporter picks this up and blocks in Write
	<-g.entered
	for range queueDepth {
		tr.StartSpan("b").End() // sits in the queue
	}
	tr.StartSpan("c").End() // queue full: dropped

	if got := tr.metrics.dropped.Value(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	close(g.release)
	go func() {
		for range g.entered { // let the drain's remaining Writes pass
		}
	}()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	close(g.entered)
	if got := tr.metrics.exported.Value(); got != 1+queueDepth {
		t.Errorf("exported = %d, want %d", got, 1+queueDepth)
	}
}

// TestCloseIdempotent: concurrent and repeated Close calls all return
// after the exporter stops, without panic or deadlock.
func TestCloseIdempotent(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	tr := New(Config{SampleRate: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tr.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	// Spans ended after Close are dropped or queued, never panic.
	tr.StartSpan("late").End()
}

// TestRecordRingNewestFirst pins the snapshot order /debug/traces
// depends on, across the wrap boundary.
func TestRecordRingNewestFirst(t *testing.T) {
	r := newRecordRing(4)
	for i := 0; i < 6; i++ {
		r.add(Record{Name: fmt.Sprintf("s%d", i)})
	}
	got := r.snapshot()
	want := []string{"s5", "s4", "s3", "s2"}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i].Name, w)
		}
	}
}

// TestAllocDisabledTracer pins the zero-cost contract for a disabled
// (nil) tracer: the full span API — root, child via context, attrs,
// errors, exemplars — performs zero heap allocations. This is
// the guarantee that lets every hot path compile tracing in
// unconditionally. Run by `make telemetry-alloc`.
func TestAllocDisabledTracer(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	errBoom := errors.New("boom")
	allocs := testing.AllocsPerRun(1000, func() {
		cctx, sp := tr.Start(ctx, "root")
		sp.SetAttr("k", "v")
		sp.SetInt("n", 42)
		sp.SetError(errBoom)
		_ = sp.ExemplarID()
		_, child := Start(cctx, "child")
		child.End()
		_ = tr.StartSpan("detached")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer span lifecycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestAllocUnsampledSpan pins the enabled-but-unsampled path: pooled
// spans and in-span context linkage mean a full root+child lifecycle
// that samples nothing allocates nothing. Run by `make telemetry-alloc`.
func TestAllocUnsampledSpan(t *testing.T) {
	tr := New(Config{SampleRate: 0})
	defer tr.Close()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		cctx, sp := tr.Start(ctx, "root")
		sp.SetAttr("k", "v")
		sp.SetInt("n", 42)
		_ = sp.ExemplarID()
		_, child := Start(cctx, "child")
		child.SetAttr("k2", "v2")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("unsampled span lifecycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestAllocLinkStartUnsampled extends the pin to the cross-goroutine
// path the resolver leader uses.
func TestAllocLinkStartUnsampled(t *testing.T) {
	tr := New(Config{SampleRate: 0})
	defer tr.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("root")
		link := sp.Link()
		sp.End()
		child := link.Start("wire")
		child.End()
	})
	if allocs != 0 {
		t.Errorf("unsampled Link lifecycle allocates %.1f times per op, want 0", allocs)
	}
}

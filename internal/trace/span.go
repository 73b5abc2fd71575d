package trace

import (
	"time"
)

// Attribute capacity per span. A fixed array keeps the unsampled path
// allocation-free; sites that exceed the capacity lose the overflow
// silently (spans are diagnostics, not records of truth — the query log
// is the record of truth).
const maxAttrs = 12

// attr is one key/value annotation. Integer values are kept as int64
// until serialization so SetInt never formats on the hot path.
type attr struct {
	k     string
	v     string
	i     int64
	isInt bool
}

// Span is one timed operation. Spans are pooled: every span obtained
// from Start/StartSpan/Link.Start must be ended exactly once, and
// neither the span nor any context derived from it may be used after
// End. All methods are safe on a nil span and no-op.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration
	head   bool // head-sampling decision, inherited trace-wide
	why    string

	hasErr bool
	errMsg string

	nattrs int
	attrs  [maxAttrs]attr

	exID  string // cached hex trace ID for exemplars
	ended bool

	ctx spanCtx
}

// SetAttr records a string attribute. Attributes beyond the span's
// fixed capacity are dropped.
func (s *Span) SetAttr(k, v string) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = attr{k: k, v: v}
	s.nattrs++
}

// SetInt records an integer attribute without formatting it.
func (s *Span) SetInt(k string, v int64) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = attr{k: k, i: v, isInt: true}
	s.nattrs++
}

// SetError marks the span failed, promoting it to export regardless
// of sampling. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.hasErr = true
	s.errMsg = err.Error()
}

// ExemplarID returns the hex trace ID for use as a histogram
// exemplar, or "" when the span is nil or its trace unsampled — so
// wiring it into SetExemplar costs nothing when tracing is off.
// The rendering is cached on the span (one allocation per sampled
// span, amortized across its exemplar sites).
func (s *Span) ExemplarID() string {
	if s == nil || !s.head {
		return ""
	}
	if s.exID == "" {
		s.exID = s.trace.String()
	}
	return s.exID
}

// End finishes the span: it computes the duration, decides export
// (head-sampled, errored, or slower than the tracer's threshold),
// and either hands the span to the exporter or recycles it. The
// handoff is a non-blocking channel send — a saturated exporter
// drops the span (counted) rather than stalling the serving path.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.tracer
	s.dur = time.Since(s.start)
	slow := t.slow > 0 && s.dur >= t.slow
	if !s.head && !s.hasErr && !slow {
		t.recycle(s)
		return
	}
	switch {
	case s.head:
		s.why = ""
	case s.hasErr:
		s.why = "error"
		t.metrics.promotedErr.Inc()
	default:
		s.why = "slow"
		t.metrics.promotedSlow.Inc()
	}
	select {
	case t.ch <- s:
	default:
		t.metrics.dropped.Inc()
		t.recycle(s)
	}
}

// recycle clears every reference the span holds (so pooled spans pin
// neither contexts nor attribute strings) and returns it to the pool.
func (t *Tracer) recycle(s *Span) {
	s.ctx = spanCtx{}
	for i := range s.attrs[:s.nattrs] {
		s.attrs[i] = attr{}
	}
	s.nattrs = 0
	s.name, s.errMsg, s.exID, s.why = "", "", "", ""
	s.tracer = nil
	t.pool.Put(s)
}

package trace

import (
	"strconv"
	"sync"
)

// exporter is the tracer's single background goroutine: it converts
// finished spans to records, feeds the in-memory rings, serializes to
// the configured output, and returns the spans to the pool. All
// Output writes happen here, one record per Write call, so a WAL
// output frames each span as one checksummed record.
func (t *Tracer) exporter() {
	defer close(t.done)
	buf := make([]byte, 0, 1024)
	for {
		select {
		case s := <-t.ch:
			buf = t.export(s, buf)
		case <-t.stop:
			// Drain what made it into the queue before the stop; spans
			// ended after this drain are dropped by End's non-blocking
			// send semantics once the queue fills.
			for {
				select {
				case s := <-t.ch:
					buf = t.export(s, buf)
				default:
					return
				}
			}
		}
	}
}

// export serializes one finished span and recycles it. The scratch
// buffer is threaded through so the steady state reuses one backing
// array.
func (t *Tracer) export(s *Span, buf []byte) []byte {
	rec := s.record()
	t.recent.add(rec)
	if t.slow > 0 && s.dur >= t.slow {
		t.slowRing.add(rec)
	}
	if t.out != nil {
		// An unencodable record leaves buf empty and is counted with the
		// failed writes: either way the span did not reach the output.
		buf = AppendRecordJSON(buf[:0], rec)
		if len(buf) == 0 {
			t.metrics.writeErrs.Inc()
		} else if _, err := t.out.Write(buf); err != nil {
			t.metrics.writeErrs.Inc()
		}
	}
	t.metrics.exported.Inc()
	t.recycle(s)
	return buf
}

// record materializes the span into an owned Record; the span can be
// recycled afterwards.
func (s *Span) record() Record {
	r := Record{
		Trace: s.trace.String(),
		Span:  s.id.String(),
		Name:  s.name,
		Start: s.start,
		DurUS: s.dur.Microseconds(),
		Why:   s.why,
		Err:   s.errMsg,
	}
	if !s.parent.IsZero() {
		r.Parent = s.parent.String()
	}
	if s.nattrs > 0 {
		r.Attrs = make([]Attr, s.nattrs)
		for i, a := range s.attrs[:s.nattrs] {
			if a.isInt {
				r.Attrs[i] = Attr{K: a.k, V: strconv.FormatInt(a.i, 10)}
			} else {
				r.Attrs[i] = Attr{K: a.k, V: a.v}
			}
		}
	}
	return r
}

// recordRing is a fixed-capacity ring of exported records, written by
// the exporter goroutine and snapshotted by /debug/traces.
type recordRing struct {
	mu    sync.Mutex
	buf   []Record
	next  int
	total uint64
}

func newRecordRing(n int) *recordRing {
	return &recordRing{buf: make([]Record, 0, n)}
}

func (r *recordRing) add(rec Record) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the ring's records newest-first.
func (r *recordRing) snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

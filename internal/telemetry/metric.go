// Package telemetry is the observability plane for every serving
// component: allocation-free metric instruments (atomic counters,
// gauges, fixed-bucket histograms), a Registry that renders them
// deterministically in Prometheus text exposition format, and an admin
// HTTP server exposing /metrics, /healthz, /statusz, and /debug/pprof.
//
// The design splits instruments from registration: a Counter is a
// plain struct usable at its zero value, so a server embeds its
// counters directly and increments them unconditionally on the hot
// path (one atomic add, zero allocations, no nil checks), while
// RegisterMetrics-style methods attach those instruments to a Registry
// with names, help text, and constant labels only when a process wants
// them exposed. Everything is stdlib-only.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; Inc and Add are lock-free and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value. The zero value is ready to
// use and reads 0. Add is a CAS loop and does not allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds d (negative d subtracts).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in increasing order; every histogram implicitly ends with a
// +Inf bucket. Observe is lock-free and allocation-free: one atomic
// add on the bucket counter, one on the total count, and a CAS loop on
// the float sum. Concurrent observations may be momentarily torn
// across those three (a scrape can see the count before the sum); like
// every mainstream client library this trades exactness under
// concurrent scrape for a hot path with no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    Gauge
	// ex holds the latest exemplar per bucket: a lock-free pointer
	// swap on the sampled path, nothing at all on the unsampled one.
	ex []atomic.Pointer[exemplarData]
}

// exemplarData is one stored exemplar: the observed value and the
// trace that produced it.
type exemplarData struct {
	value float64
	trace string
}

// NewHistogram builds a histogram over the given bucket upper bounds,
// which must be finite and strictly increasing. The slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		ex:     make([]atomic.Pointer[exemplarData], len(bounds)+1),
	}
	return h
}

// bucket returns the index of the bucket containing v.
func (h *Histogram) bucket(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds) // +Inf bucket
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// SetExemplar stores an exemplar for the bucket containing v without
// recording an observation — for sites whose Observe happens
// elsewhere (the DNS serve path observes latency outside the span's
// lifetime). An empty traceID, what an unsampled or nil span's
// ExemplarID returns, is a no-op.
func (h *Histogram) SetExemplar(v float64, traceID string) {
	if traceID == "" {
		return
	}
	h.ex[h.bucket(v)].Store(&exemplarData{value: v, trace: traceID})
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are cumulative, Prometheus-style: Counts[i] is the number of
// observations <= Bounds[i], and Counts[len(Bounds)] (the +Inf bucket)
// equals Count.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplars carries the latest stored exemplar per bucket that
	// has one. Bucket is the bucket index (len(Bounds) is the +Inf
	// bucket — an index, not a bound, so the snapshot stays
	// marshalable by encoding/json).
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Exemplar links one histogram bucket to the trace that most
// recently landed in it.
type Exemplar struct {
	Bucket  int     `json:"bucket"`
	Value   float64 `json:"value"`
	TraceID string  `json:"trace"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Value(),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	// Render a consistent snapshot even if observations raced the scan:
	// the +Inf bucket defines the count.
	s.Count = s.Counts[len(s.Counts)-1]
	for i := range h.ex {
		if e := h.ex[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, Exemplar{Bucket: i, Value: e.value, TraceID: e.trace})
		}
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the snapshot by
// linear interpolation inside the containing bucket. Estimates are as
// coarse as the buckets; values landing in the +Inf bucket report the
// highest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	lower := 0.0
	var below uint64
	for i, bound := range s.Bounds {
		cum := s.Counts[i]
		if float64(cum) >= rank {
			in := cum - below
			if in == 0 {
				return bound
			}
			frac := (rank - float64(below)) / float64(in)
			return lower + (bound-lower)*frac
		}
		below = cum
		lower = bound
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// LatencyBuckets is the preset for operation latencies in seconds:
// 100µs to 10s, roughly logarithmic. It covers both the loopback
// serving path (tens of µs land in the first bucket) and the paper's
// 800 ms-scale shaped responses.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the preset for byte sizes: 64 B to 1 MiB in powers of
// four, matching DNS messages (tens to hundreds of bytes), log lines,
// and SMTP payloads.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
}

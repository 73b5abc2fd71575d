package dns

import (
	"sendervalid/internal/telemetry"
)

// The transport endpoints are instrumented unconditionally: every
// instrument is an atomic counter (or a fixed-bucket histogram of
// atomic counters), so the serving hot path pays one or two
// uncontended atomic adds per query whether or not anything scrapes
// them. Registration against a telemetry.Registry is the opt-in step.

// serverMetrics are one endpoint's always-on instruments. The zero
// value is usable for all counters; the latency histogram is created
// by init (idempotent, called from Start).
type serverMetrics struct {
	queriesUDP telemetry.Counter
	queriesTCP telemetry.Counter
	// rcodes counts responses by RCODE. DNS header RCODEs are 4 bits,
	// so a fixed array replaces a labeled family on the write path.
	rcodes [16]telemetry.Counter
	// serve is the query latency from packet arrival to response
	// written, in seconds.
	serve *telemetry.Histogram
}

func (m *serverMetrics) init() {
	if m.serve == nil {
		m.serve = telemetry.NewHistogram(telemetry.LatencyBuckets)
	}
}

// observeServe records one served query's latency. Safe before init
// (no histogram yet) so direct handler tests need no setup.
func (m *serverMetrics) observeServe(seconds float64) {
	if h := m.serve; h != nil {
		h.Observe(seconds)
	}
}

// setServeExemplar tags the serve-latency bucket containing seconds
// with a sampled trace id; the observation itself is observeServe's.
func (m *serverMetrics) setServeExemplar(seconds float64, traceID string) {
	if h := m.serve; h != nil {
		h.SetExemplar(seconds, traceID)
	}
}

// RegisterMetrics publishes the endpoint's instruments under the
// dns_ namespace with the given constant labels (callers serving
// several endpoints distinguish them with e.g. endpoint="v6"). Call
// after Start so the latency histogram and rate limiter exist.
func (s *Server) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	s.metrics.init()
	reg.MustCounter("dns_queries_total",
		"Queries received, by transport.",
		&s.metrics.queriesUDP, telemetry.WithLabel(labels, "transport", "udp")...)
	reg.MustCounter("dns_queries_total",
		"Queries received, by transport.",
		&s.metrics.queriesTCP, telemetry.WithLabel(labels, "transport", "tcp")...)
	for i := range s.metrics.rcodes {
		reg.MustCounter("dns_responses_total",
			"Responses written, by RCODE.",
			&s.metrics.rcodes[i], telemetry.WithLabel(labels, "rcode", RCode(i).String())...)
	}
	reg.MustHistogram("dns_serve_duration_seconds",
		"Query latency from arrival to response written.",
		s.metrics.serve, labels...)
	reg.MustCounter("dns_handler_panics_total",
		"Handler panics recovered into SERVFAIL responses.",
		&s.panics, labels...)
	reg.MustCounter("dns_ratelimit_refused_total",
		"Queries answered REFUSED by the per-source rate limiter.",
		&s.refused, labels...)
	reg.MustGaugeFunc("dns_ratelimit_sources",
		"Sources currently tracked by the rate limiter.",
		func() float64 {
			if s.limiter == nil {
				return 0
			}
			return float64(s.limiter.Sources())
		}, labels...)
}

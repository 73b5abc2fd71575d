package dnsserver

import (
	"sendervalid/internal/telemetry"
)

// serverMetrics are the synthesizing server's always-on instruments.
// They sit above the transport endpoints (which carry their own
// dns_* families): attribution-level counts the transport cannot see.
type serverMetrics struct {
	// queries counts attributed queries by test-policy label. The
	// label comes off the wire (any probe can mint one), so the family
	// is cardinality-bounded: the catalog's 39 policies plus apex and
	// infrastructure labels fit, and junk beyond the bound lands in
	// the overflow child.
	queries *telemetry.CounterVec
	// zoneMiss counts queries refused for matching no served zone.
	zoneMiss telemetry.Counter
}

const maxPolicySeries = 128

// noPolicyLabel attributes apex and other unlabeled in-zone queries.
const noPolicyLabel = "none"

func (m *serverMetrics) init() {
	m.queries = telemetry.NewCounterVec(maxPolicySeries)
}

func policyLabel(testID string) string {
	if testID == "" {
		return noPolicyLabel
	}
	return testID
}

// RegisterMetrics publishes the server's families: the per-policy
// query counts and zone misses under dnsserver_, and
// each transport endpoint's dns_* families distinguished by an
// endpoint label. The given constant labels are applied to every
// family, so several servers (one per experiment phase, say) can share
// one registry with disjoint labelsets. Call after Start (the
// endpoints must exist). The query log is registered separately by its
// owner (see AsyncLog.RegisterMetrics), which also owns its lifecycle.
func (s *Server) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	s.init()
	reg.MustCounterVec("dnsserver_queries_total",
		"Attributed queries, by test-policy label.",
		"policy", s.metrics.queries, labels...)
	reg.MustCounter("dnsserver_zone_misses_total",
		"Queries refused for matching no served zone.",
		&s.metrics.zoneMiss, labels...)
	for _, ep := range s.eps {
		family := "v4"
		if ep.v6 {
			family = "v6"
		}
		ep.RegisterMetrics(reg, telemetry.WithLabel(labels, "endpoint", family)...)
	}
}

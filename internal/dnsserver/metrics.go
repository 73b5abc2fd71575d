package dnsserver

import (
	"sendervalid/internal/telemetry"
)

// serverMetrics are the synthesizing server's always-on instruments.
// They sit above the transport endpoints (which carry their own
// dns_* families): attribution-level counts the transport cannot see.
type serverMetrics struct {
	// queries counts attributed queries by test-policy label. It is
	// fixed when the server starts: one counter per label a depth-2
	// zone has a responder for, noPolicyLabel and overflowLabel. The
	// label comes off the wire (any probe can put anything in a
	// name), so a label the server does not serve mints no series:
	// the handler counts it under overflowLabel.
	queries map[string]*telemetry.Counter
	// zoneMiss counts queries refused for matching no served zone.
	zoneMiss telemetry.Counter
}

const (
	// noPolicyLabel attributes apex and other unlabeled in-zone queries.
	noPolicyLabel = "none"
	// overflowLabel attributes queries whose test label the server
	// does not serve.
	overflowLabel = "_overflow"
)

func (m *serverMetrics) init(zones []*Zone) {
	m.queries = map[string]*telemetry.Counter{
		noPolicyLabel: new(telemetry.Counter),
		overflowLabel: new(telemetry.Counter),
	}
	for _, z := range zones {
		if z.depth < 2 {
			continue
		}
		for id := range z.Responders {
			if m.queries[id] == nil {
				m.queries[id] = new(telemetry.Counter)
			}
		}
	}
}

// countQuery counts one attributed query under its test label.
func (m *serverMetrics) countQuery(testID string) {
	if testID == "" {
		testID = noPolicyLabel
	}
	c := m.queries[testID]
	if c == nil {
		c = m.queries[overflowLabel]
	}
	c.Inc()
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
	for policy, c := range s.metrics.queries {
		reg.MustCounter("dnsserver_queries_total",
			"Attributed queries, by test-policy label.",
			c, telemetry.WithLabel(labels, "policy", policy)...)
	}
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

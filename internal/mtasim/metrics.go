package mtasim

import (
	"sync/atomic"

	"sendervalid/internal/telemetry"
)

// stat indexes one activity counter. The order is Stats' field order
// and statDescs' row order.
type stat int

const (
	statSessions stat = iota
	statRejectedSessions
	statTempfailedSessions
	statSPFChecks
	statHELOChecks
	statDKIMChecks
	statDMARCChecks
	statMessagesAccepted
	statMessagesRejected
	numStats
)

// counters is one set of activity counters: every MTA owns one, and a
// fleet shares one through Metrics.
type counters [numStats]atomic.Uint64

// Metrics aggregates activity across a fleet of simulated MTAs. A
// sweep runs thousands of MTA instances, so per-instance metric
// families would be unbounded cardinality; instead one shared Metrics
// is handed to every MTA via Config.Metrics and incremented alongside
// each instance's own counters. The zero value is ready to use; nil
// means no fleet accounting.
type Metrics struct {
	c counters
}

var statDescs = [numStats]struct{ name, help string }{
	statSessions:           {"mtasim_sessions_total", "SMTP sessions opened against the simulated fleet."},
	statRejectedSessions:   {"mtasim_sessions_rejected_total", "Sessions 554'd at connect by a RejectProbe profile."},
	statTempfailedSessions: {"mtasim_sessions_tempfailed_total", "Sessions 421'd at connect by a greylisting profile."},
	statSPFChecks:          {"mtasim_spf_checks_total", "SPF evaluations run by the fleet."},
	statHELOChecks:         {"mtasim_helo_checks_total", "HELO-identity SPF evaluations run by the fleet."},
	statDKIMChecks:         {"mtasim_dkim_checks_total", "DKIM verifications run by the fleet."},
	statDMARCChecks:        {"mtasim_dmarc_checks_total", "DMARC evaluations run by the fleet."},
	statMessagesAccepted:   {"mtasim_messages_accepted_total", "Messages accepted to completion by the fleet."},
	statMessagesRejected:   {"mtasim_messages_rejected_total", "Messages 550'd by an enforcing profile."},
}

// RegisterMetrics publishes the fleet totals under the mtasim_
// namespace.
func (f *Metrics) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	for i := range statDescs {
		reg.MustCounterFunc(statDescs[i].name, statDescs[i].help, f.c[i].Load, labels...)
	}
}

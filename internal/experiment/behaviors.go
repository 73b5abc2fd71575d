package experiment

import (
	"fmt"
	"sort"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/policy"
)

// The §7 analyses are tallies over fingerprint.Observations, the one
// per-MTA reading of the query log: fold once, then call SerialParallel,
// LookupLimits, Behaviors and Fingerprints. The Analyze*Entries(log)
// adapters fold per call; only the frozen bench/ uses them (ROADMAP 7(c)).

// Observations folds the test zone of the world's query log in place,
// through fingerprint.Observe's split fold.
func (w *World) Observations() (obs fingerprint.Observations) {
	w.Log.View(func(entries []dnsserver.LogEntry) { obs = fingerprint.Observe(entries) })
	return obs
}

// DomainObservations folds its NotifyEmail zone.
func (w *World) DomainObservations() fingerprint.DomainObservations {
	obs := make(fingerprint.DomainObservations)
	w.Log.View(func(entries []dnsserver.LogEntry) {
		for i := range entries {
			obs.Add(&entries[i])
		}
	})
	return obs
}

// SerialParallelResult is the §7.1 analysis.
type SerialParallelResult struct {
	// Serial: of the MTAs whose t01 evaluation shows both signals, those
	// that evaluated serially.
	Serial SimpleShare
}

// SerialParallel classifies each MTA's t01 evaluation: serial
// validators query the a-mechanism target only after the shaped L3
// include; parallel (prefetching) validators query it earlier. Only
// MTAs that progressed far enough to show both signals are
// classifiable (the paper tested 1,432 such MTAs).
func SerialParallel(obs fingerprint.Observations) SerialParallelResult {
	var out SerialParallelResult
	for _, o := range obs {
		if serial, ok := o.Serial(); ok {
			out.Serial.add(serial)
		}
	}
	return out
}

// AnalyzeSerialParallelEntries is SerialParallel over a log slice.
func AnalyzeSerialParallelEntries(log []dnsserver.LogEntry) SerialParallelResult {
	return SerialParallel(fingerprint.Observe(log))
}

// LookupLimitResult is the §7.2 / Figure 5 analysis, over the MTAs
// that fetched the t02 base policy.
type LookupLimitResult struct {
	// QueriesPerMTA holds, per MTA, how many of the tree's policies below
	// the base it asked for (0–46).
	QueriesPerMTA []int
	// halted and ranAll count the MTAs of QueriesPerMTA that stopped at
	// or under the 10-lookup limit and that issued all 46 follow-ups.
	halted, ranAll int
	// MaxQueries is the tree size (46).
	MaxQueries int
}

// HaltedBeforeTen is the share of MTAs stopping at or under the
// 10-lookup limit (the paper's "halted before 10 DNS queries").
func (r LookupLimitResult) HaltedBeforeTen() SimpleShare {
	return SimpleShare{Tested: len(r.QueriesPerMTA), Observed: r.halted}
}

// RanAll is the share of MTAs issuing all 46 follow-ups.
func (r LookupLimitResult) RanAll() SimpleShare {
	return SimpleShare{Tested: len(r.QueriesPerMTA), Observed: r.ranAll}
}

// LookupLimits derives the Figure 5 distribution from the t02
// observations.
func LookupLimits(obs fingerprint.Observations) LookupLimitResult {
	out := LookupLimitResult{MaxQueries: policy.LimitsTree.Len()}
	for _, o := range obs {
		if !o.Tested(policy.LimitsTree) {
			continue
		}
		out.QueriesPerMTA = append(out.QueriesPerMTA, o.Count(policy.LimitsTree))
		if o.WithinLookupLimit() {
			out.halted++
		}
		if o.RanFullTree() {
			out.ranAll++
		}
	}
	sort.Ints(out.QueriesPerMTA)
	return out
}

// AnalyzeLookupLimitsEntries is LookupLimits over a log slice.
func AnalyzeLookupLimitsEntries(log []dnsserver.LogEntry) LookupLimitResult {
	return LookupLimits(fingerprint.Observe(log))
}

// CDF returns (x, fraction≤x) pairs over the query counts — the
// Figure 5 curve. The elapsed-time axis is x × LimitsDelay.
func (r LookupLimitResult) CDF() []CDFPoint {
	if len(r.QueriesPerMTA) == 0 {
		return nil
	}
	var out []CDFPoint
	n := len(r.QueriesPerMTA)
	for i, q := range r.QueriesPerMTA {
		if i+1 < n && r.QueriesPerMTA[i+1] == q {
			continue
		}
		out = append(out, CDFPoint{X: float64(q), Fraction: float64(i+1) / float64(n)})
	}
	return out
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	X        float64
	Fraction float64
}

// SimpleShare is a k-of-N rate, the one shape of every rate the
// analyses return: of Tested MTAs or domains, Observed showed the
// behaviour.
type SimpleShare struct {
	Tested   int
	Observed int
}

// add counts one tested MTA or domain.
func (s *SimpleShare) add(observed bool) {
	s.Tested++
	if observed {
		s.Observed++
	}
}

// Percent renders the share as a percentage with decimals digits after
// the point, or "–" when nothing was tested. It divides 100×Observed
// by Tested: 100×(Observed/Tested) rounds differently (22 of 4,000
// would print 0.5%, not 0.6%).
func (s SimpleShare) Percent(decimals int) string {
	if s.Tested == 0 {
		return "–"
	}
	return fmt.Sprintf("%.*f%%", decimals, 100*float64(s.Observed)/float64(s.Tested))
}

// BehaviorResults bundles the §7.3 analyses.
type BehaviorResults struct {
	// HELOChecked: MTAs that looked up the HELO-domain policy; all of
	// them also evaluated MAIL (ContinuedToMail).
	HELOChecked     SimpleShare
	ContinuedToMail SimpleShare

	// Syntax tolerance: lookups right of (t04) or after (t05) an error.
	SyntaxMainTolerant  SimpleShare
	SyntaxChildTolerant SimpleShare

	// Void lookups: went past the 2-void limit (a fourth void query:
	// Observation.PastVoidLimit); AllFive looked up all 5.
	VoidExceeded SimpleShare
	VoidAllFive  SimpleShare

	// MXFallback: A/AAAA after an empty MX answer.
	MXFallback SimpleShare

	// Multiple records: permerror (followed none), one, or both.
	MultipleNone SimpleShare
	MultipleOne  SimpleShare
	MultipleBoth SimpleShare

	// TCP: of resolvers that received a truncated UDP answer, how many
	// retried over TCP.
	TCPRetried SimpleShare

	// IPv6: of MTAs that fetched the t10 base policy, how many
	// retrieved the v6-only follow-up.
	IPv6Retrieved SimpleShare

	// MXLimit: stopped at ≤10 address lookups; AllTwenty did all 20.
	MXLimitCompliant SimpleShare
	MXAllTwenty      SimpleShare
}

// Behaviors computes the §7.3 results.
func Behaviors(obs fingerprint.Observations) *BehaviorResults {
	out := &BehaviorResults{}
	for _, o := range obs {
		mail, helo := o.Tested(policy.HELO), o.Has(policy.HELO)
		if mail || helo {
			out.HELOChecked.add(helo)
			if helo {
				out.ContinuedToMail.add(mail)
			}
		}
		if o.Tested(policy.MainAfter) {
			out.SyntaxMainTolerant.add(o.Has(policy.MainAfter))
		}
		if o.Tested(policy.ChildCont) {
			out.SyntaxChildTolerant.add(o.Has(policy.ChildCont))
		}
		if o.Tested(policy.Void) {
			out.VoidExceeded.add(o.PastVoidLimit())
			out.VoidAllFive.add(o.Count(policy.Void) >= 5)
		}
		if o.Tested(policy.MXFallback) {
			out.MXFallback.add(o.Has(policy.MXFallback))
		}
		if o.Tested(policy.MultiOne) {
			one, two := o.Has(policy.MultiOne), o.Has(policy.MultiTwo)
			out.MultipleNone.add(!one && !two)
			out.MultipleOne.add(one != two)
			out.MultipleBoth.add(one && two)
		}
		if o.UDP || o.TCP {
			out.TCPRetried.add(o.TCP)
		}
		if o.Tested(policy.IPv6Only) {
			out.IPv6Retrieved.add(o.V6)
		}
		if o.Tested(policy.MXHosts) {
			out.MXLimitCompliant.add(o.WithinMXLimit())
			out.MXAllTwenty.add(o.Count(policy.MXHosts) >= policy.MXLimitCount)
		}
	}
	return out
}

// AnalyzeBehaviorsEntries is Behaviors over a log slice.
func AnalyzeBehaviorsEntries(log []dnsserver.LogEntry) *BehaviorResults {
	return Behaviors(fingerprint.Observe(log))
}

package experiment

import (
	"sendervalid/internal/dataset"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/probe"
)

// CoreTests is the subset of the 39-policy catalog whose results the
// paper reports (§6–§7); experiment drivers default to it.
var CoreTests = []string{
	"t01", "t02", "t03", "t04", "t05", "t06",
	"t07", "t08", "t09", "t10", "t11", "t12",
}

// AllTests lists the full 39-policy catalog IDs.
func AllTests() []string {
	out := make([]string, 0, 39)
	for i := 1; i <= 39; i++ {
		out = append(out, testID(i))
	}
	return out
}

func testID(i int) string {
	return "t" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// ProbeRun is the raw outcome of a NotifyMX or TwoWeekMX experiment.
type ProbeRun struct {
	// Results collects every probe, keyed by MTA id.
	Results map[string][]*probe.Result
	// Tests is the test-ID list each MTA was probed with.
	Tests []string
}

// ProbeAnalysis is the Table 5 summary of a probe experiment.
type ProbeAnalysis struct {
	Name string

	Domains int
	MTAs    int
	// SPFMTAs and SPFDomains count SPF-validating MTAs/domains: at
	// least one query observed under the test zone.
	SPFMTAs    int
	SPFDomains int

	// Rejection observations (§6.2).
	SpamRejected      int
	BlacklistRejected int
	ProbesCompleted   int
	ProbesTotal       int

	// Deciles is the per-decile Table 5 breakdown (TwoWeekMX only;
	// nil otherwise). Decile 1 is the most-queried tenth.
	Deciles []DecileRow

	// ValidatingMTASet exposes the observed MTA ids for cross-
	// experiment comparisons (§6.2's NotifyEmail vs NotifyMX contrast).
	ValidatingMTASet map[string]bool
}

// DecileRow is one TwoWeekMX decile line of Table 5.
type DecileRow struct {
	Decile     int
	Domains    int
	MTAs       int
	SPFDomains int
	SPFMTAs    int
}

// Probes derives the Table 5 numbers from the fold of the query log's
// test zone and the probe records. An MTA is SPF-validating when any
// query under the test zone is attributed to it (§6 definition) —
// exactly the MTAs the fold holds an Observation for.
func Probes(pop *dataset.Population, obs fingerprint.Observations, run *ProbeRun, withDeciles bool) *ProbeAnalysis {
	a := &ProbeAnalysis{
		Name:             pop.Name,
		Domains:          len(pop.Domains),
		MTAs:             len(pop.MTAs),
		SPFMTAs:          len(obs),
		ValidatingMTASet: make(map[string]bool, len(obs)),
	}
	for id := range obs {
		a.ValidatingMTASet[id] = true
	}

	validatingDomain := func(d *dataset.Domain) bool {
		for _, m := range d.MTAs {
			if a.ValidatingMTASet[m.ID] {
				return true
			}
		}
		return false
	}
	for _, d := range pop.Domains {
		if validatingDomain(d) {
			a.SPFDomains++
		}
	}

	// Probe-outcome accounting.
	rejectedMTAs := make(map[string]*probe.Result)
	for id, results := range run.Results {
		for _, r := range results {
			a.ProbesTotal++
			if r.Stage == probe.StageDone {
				a.ProbesCompleted++
			}
			if r.Rejected() && rejectedMTAs[id] == nil {
				rejectedMTAs[id] = r
			}
		}
	}
	for _, r := range rejectedMTAs {
		switch {
		case r.MentionsBlacklist():
			a.BlacklistRejected++
		case r.MentionsSpam():
			a.SpamRejected++
		}
	}

	if withDeciles {
		for i, dec := range pop.Deciles() {
			row := DecileRow{Decile: i + 1, Domains: len(dec)}
			mtas := make(map[string]bool)
			for _, d := range dec {
				if validatingDomain(d) {
					row.SPFDomains++
				}
				for _, m := range d.MTAs {
					if !mtas[m.ID] {
						mtas[m.ID] = true
						row.MTAs++
						if a.ValidatingMTASet[m.ID] {
							row.SPFMTAs++
						}
					}
				}
			}
			a.Deciles = append(a.Deciles, row)
		}
	}
	return a
}

// AnalyzeProbes is Probes over the world's own fold of its log. Only
// the frozen bench/ calls it (ROADMAP 7(c)).
func AnalyzeProbes(w *World, run *ProbeRun, withDeciles bool) *ProbeAnalysis {
	return Probes(w.Population, w.Observations(), run, withDeciles)
}

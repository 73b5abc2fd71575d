package experiment

import (
	"fmt"
	"strings"

	"sendervalid/internal/dataset"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/policy"
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

// ParseTests reads a -tests flag: "core" (CoreTests), "all"
// (AllTests), or a comma-separated list of distinct IDs, each naming a
// policy of policy.Catalog().
func ParseTests(list string) ([]string, error) {
	switch list {
	case "core":
		return CoreTests, nil
	case "all":
		return AllTests(), nil
	}
	unlisted := make(map[string]bool)
	for _, t := range policy.Catalog() {
		unlisted[t.ID] = true
	}
	ids := strings.Split(list, ",")
	for _, id := range ids {
		switch fresh, known := unlisted[id]; {
		case !known:
			return nil, fmt.Errorf("-tests: %q is not a catalog test ID (t01–t39), core or all", id)
		case !fresh:
			return nil, fmt.Errorf("-tests: %q is listed twice", id)
		}
		unlisted[id] = false
	}
	return ids, nil
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

	// SPFMTAs and SPFDomains are the population's SPF-validating MTAs
	// and domains: at least one query observed under the test zone.
	SPFMTAs    SimpleShare
	SPFDomains SimpleShare

	// Rejection observations (§6.2).
	SpamRejected      int
	BlacklistRejected int
	// ProbesCompleted: the recorded probes that completed the dialogue.
	ProbesCompleted SimpleShare

	// Deciles is the per-decile Table 5 breakdown (TwoWeekMX only;
	// nil otherwise). Decile 1 is the most-queried tenth.
	Deciles []DecileRow

	// ValidatingMTASet exposes the observed MTA ids for cross-
	// experiment comparisons (§6.2's NotifyEmail vs NotifyMX contrast).
	ValidatingMTASet map[string]bool
}

// DecileRow is one TwoWeekMX decile line of Table 5: the decile's
// SPF-validating domains and MTAs.
type DecileRow struct {
	Decile     int
	SPFDomains SimpleShare
	SPFMTAs    SimpleShare
}

// Probes derives the Table 5 numbers from the fold of the query log's
// test zone and the probe records. An MTA is SPF-validating when any
// query under the test zone is attributed to it (§6 definition) —
// exactly the MTAs the fold holds an Observation for.
func Probes(pop *dataset.Population, obs fingerprint.Observations, run *ProbeRun, withDeciles bool) *ProbeAnalysis {
	a := &ProbeAnalysis{
		Name:             pop.Name,
		SPFMTAs:          SimpleShare{Tested: len(pop.MTAs), Observed: len(obs)},
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
		a.SPFDomains.add(validatingDomain(d))
	}

	// Probe-outcome accounting.
	rejectedMTAs := make(map[string]*probe.Result)
	for id, results := range run.Results {
		for _, r := range results {
			a.ProbesCompleted.add(r.Stage == probe.StageDone)
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
			row := DecileRow{Decile: i + 1}
			mtas := make(map[string]bool)
			for _, d := range dec {
				row.SPFDomains.add(validatingDomain(d))
				for _, m := range d.MTAs {
					if !mtas[m.ID] {
						mtas[m.ID] = true
						row.SPFMTAs.add(a.ValidatingMTASet[m.ID])
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

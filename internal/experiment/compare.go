package experiment

import (
	"fmt"
	"strings"

	"sendervalid/internal/dataset"
)

// Consistency is the §6.2 cross-experiment comparison: how domain
// validation status differs between the NotifyEmail experiment
// (legitimate mail delivered) and the NotifyMX experiment (probes,
// nine months later, from a blacklisted client). The paper found 58%
// of common domains inconsistent, 95% of inconsistencies being
// "validated for mail but not for probes", and only 65% of
// NotifyEmail validators re-observed by NotifyMX.
type Consistency struct {
	// BothValidating / NeitherValidating are the consistent cases.
	BothValidating    int
	NeitherValidating int
	// EmailOnly counts domains validating for NotifyEmail but not
	// NotifyMX (the dominant inconsistency).
	EmailOnly int
	// ProbeOnly counts the reverse.
	ProbeOnly int
}

// InconsistentShare is the domains the two runs disagree on, of every
// domain both evaluated.
func (c Consistency) InconsistentShare() SimpleShare {
	n := c.EmailOnly + c.ProbeOnly
	return SimpleShare{Tested: c.BothValidating + c.NeitherValidating + n, Observed: n}
}

// EmailOnlyShare is the inconsistencies where the domain validated for
// mail but not for probes (paper: 95%).
func (c Consistency) EmailOnlyShare() SimpleShare {
	return SimpleShare{Tested: c.EmailOnly + c.ProbeOnly, Observed: c.EmailOnly}
}

// ReobservedShare is the NotifyEmail validators also seen validating in
// NotifyMX (paper: 65%).
func (c Consistency) ReobservedShare() SimpleShare {
	return SimpleShare{Tested: c.BothValidating + c.EmailOnly, Observed: c.BothValidating}
}

// Compare derives the §6.2 consistency analysis. The NotifyEmail
// analysis supplies per-domain validation; the probe analysis supplies
// the validating-MTA set, which is projected onto domains through the
// population (both experiments ran over the same domain population).
func Compare(pop *dataset.Population, ne *NotifyEmailAnalysis, probes *ProbeAnalysis) Consistency {
	var c Consistency
	for _, d := range pop.Domains {
		emailValidated := ne.Validation[d.ID].SPF
		probeValidated := false
		for _, m := range d.MTAs {
			if probes.ValidatingMTASet[m.ID] {
				probeValidated = true
				break
			}
		}
		switch {
		case emailValidated && probeValidated:
			c.BothValidating++
		case !emailValidated && !probeValidated:
			c.NeitherValidating++
		case emailValidated:
			c.EmailOnly++
		default:
			c.ProbeOnly++
		}
	}
	return c
}

// RenderConsistency prints the §6.2 comparison.
func RenderConsistency(c Consistency) string {
	inconsistent := c.InconsistentShare()
	var sb strings.Builder
	sb.WriteString("Section 6.2: NotifyEmail vs NotifyMX consistency\n")
	fmt.Fprintf(&sb, "  common domains:            %d\n", inconsistent.Tested)
	fmt.Fprintf(&sb, "  consistent:                %d validating + %d silent\n",
		c.BothValidating, c.NeitherValidating)
	fmt.Fprintf(&sb, "  inconsistent:              %d (%s of common)\n",
		inconsistent.Observed, inconsistent.Percent(0))
	fmt.Fprintf(&sb, "  mail-only validators:      %d (%s of inconsistencies; paper 95%%)\n",
		c.EmailOnly, c.EmailOnlyShare().Percent(0))
	fmt.Fprintf(&sb, "  probe-only validators:     %d\n", c.ProbeOnly)
	fmt.Fprintf(&sb, "  NotifyEmail validators re-observed by probes: %s (paper 65%%)\n",
		c.ReobservedShare().Percent(0))
	return sb.String()
}

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
	// CommonDomains is the number of domains evaluated by both runs.
	CommonDomains int
	// BothValidating / NeitherValidating are the consistent cases.
	BothValidating    int
	NeitherValidating int
	// EmailOnly counts domains validating for NotifyEmail but not
	// NotifyMX (the dominant inconsistency).
	EmailOnly int
	// ProbeOnly counts the reverse.
	ProbeOnly int
}

// Inconsistent is the total number of disagreeing domains.
func (c Consistency) Inconsistent() int { return c.EmailOnly + c.ProbeOnly }

// InconsistentFraction is the share of common domains disagreeing.
func (c Consistency) InconsistentFraction() float64 {
	if c.CommonDomains == 0 {
		return 0
	}
	return float64(c.Inconsistent()) / float64(c.CommonDomains)
}

// EmailOnlyFraction is the share of inconsistencies where the domain
// validated for mail but not for probes (paper: 95%).
func (c Consistency) EmailOnlyFraction() float64 {
	if c.Inconsistent() == 0 {
		return 0
	}
	return float64(c.EmailOnly) / float64(c.Inconsistent())
}

// ReobservedFraction is the share of NotifyEmail validators also seen
// validating in NotifyMX (paper: 65%).
func (c Consistency) ReobservedFraction() float64 {
	emailValidators := c.BothValidating + c.EmailOnly
	if emailValidators == 0 {
		return 0
	}
	return float64(c.BothValidating) / float64(emailValidators)
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
		c.CommonDomains++
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
	var sb strings.Builder
	sb.WriteString("Section 6.2: NotifyEmail vs NotifyMX consistency\n")
	fmt.Fprintf(&sb, "  common domains:            %d\n", c.CommonDomains)
	fmt.Fprintf(&sb, "  consistent:                %d validating + %d silent\n",
		c.BothValidating, c.NeitherValidating)
	fmt.Fprintf(&sb, "  inconsistent:              %d (%.0f%% of common)\n",
		c.Inconsistent(), 100*c.InconsistentFraction())
	fmt.Fprintf(&sb, "  mail-only validators:      %d (%.0f%% of inconsistencies; paper 95%%)\n",
		c.EmailOnly, 100*c.EmailOnlyFraction())
	fmt.Fprintf(&sb, "  probe-only validators:     %d\n", c.ProbeOnly)
	fmt.Fprintf(&sb, "  NotifyEmail validators re-observed by probes: %.0f%% (paper 65%%)\n",
		100*c.ReobservedFraction())
	return sb.String()
}

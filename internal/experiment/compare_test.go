package experiment

import (
	"math"
	"strings"
	"testing"

	"sendervalid/internal/dataset"
)

func almost(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestConsistencyAccounting(t *testing.T) {
	c := Consistency{
		CommonDomains:     10,
		BothValidating:    3,
		NeitherValidating: 2,
		EmailOnly:         4,
		ProbeOnly:         1,
	}
	if got := c.Inconsistent(); got != 5 {
		t.Errorf("Inconsistent() = %d, want 5", got)
	}
	if got := c.InconsistentFraction(); !almost(got, 0.5) {
		t.Errorf("InconsistentFraction() = %v, want 0.5", got)
	}
	if got := c.EmailOnlyFraction(); !almost(got, 0.8) {
		t.Errorf("EmailOnlyFraction() = %v, want 0.8", got)
	}
	// 3 of the 7 NotifyEmail validators (both + email-only) re-observed.
	if got := c.ReobservedFraction(); !almost(got, 3.0/7.0) {
		t.Errorf("ReobservedFraction() = %v, want 3/7", got)
	}
}

func TestConsistencyZeroDomains(t *testing.T) {
	// Degenerate inputs must not divide by zero.
	var c Consistency
	if got := c.InconsistentFraction(); got != 0 {
		t.Errorf("InconsistentFraction() with no common domains = %v, want 0", got)
	}
	if got := c.EmailOnlyFraction(); got != 0 {
		t.Errorf("EmailOnlyFraction() with no inconsistencies = %v, want 0", got)
	}
	if got := c.ReobservedFraction(); got != 0 {
		t.Errorf("ReobservedFraction() with no email validators = %v, want 0", got)
	}
}

func TestCompareClassifiesDomains(t *testing.T) {
	// Four domains covering the full 2×2 of (email, probe) validation.
	// d3 designates two MTAs; one validating MTA is enough to count the
	// domain as probe-validating.
	mta := func(id string) *dataset.MTAInfo { return &dataset.MTAInfo{ID: id} }
	pop := &dataset.Population{
		Domains: []*dataset.Domain{
			{ID: "d1", MTAs: []*dataset.MTAInfo{mta("m1")}},            // both
			{ID: "d2", MTAs: []*dataset.MTAInfo{mta("m2")}},            // email only
			{ID: "d3", MTAs: []*dataset.MTAInfo{mta("m3"), mta("m4")}}, // probe only (second MTA)
			{ID: "d4", MTAs: []*dataset.MTAInfo{mta("m5")}},            // neither
		},
	}
	ne := &NotifyEmailAnalysis{Validation: map[string]DomainValidation{
		"d1": {SPF: true},
		"d2": {SPF: true},
	}}
	probes := &ProbeAnalysis{ValidatingMTASet: map[string]bool{
		"m1": true,
		"m4": true,
	}}

	c := Compare(pop, ne, probes)
	want := Consistency{
		CommonDomains:     4,
		BothValidating:    1,
		NeitherValidating: 1,
		EmailOnly:         1,
		ProbeOnly:         1,
	}
	if c != want {
		t.Errorf("Compare = %+v, want %+v", c, want)
	}

	out := RenderConsistency(c)
	for _, needle := range []string{"common domains:            4", "mail-only validators:      1"} {
		if !strings.Contains(out, needle) {
			t.Errorf("rendering missing %q:\n%s", needle, out)
		}
	}
}

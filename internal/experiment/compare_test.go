package experiment

import (
	"strings"
	"testing"

	"sendervalid/internal/dataset"
)

func TestConsistencyAccounting(t *testing.T) {
	c := Consistency{
		BothValidating:    3,
		NeitherValidating: 2,
		EmailOnly:         4,
		ProbeOnly:         1,
	}
	if got, want := c.InconsistentShare(), (SimpleShare{Tested: 10, Observed: 5}); got != want {
		t.Errorf("InconsistentShare() = %+v, want %+v", got, want)
	}
	if got, want := c.EmailOnlyShare(), (SimpleShare{Tested: 5, Observed: 4}); got != want {
		t.Errorf("EmailOnlyShare() = %+v, want %+v", got, want)
	}
	// 3 of the 7 NotifyEmail validators (both + email-only) re-observed.
	if got, want := c.ReobservedShare(), (SimpleShare{Tested: 7, Observed: 3}); got != want {
		t.Errorf("ReobservedShare() = %+v, want %+v", got, want)
	}
}

func TestConsistencyZeroDomains(t *testing.T) {
	// Degenerate inputs must not divide by zero: an empty share prints
	// a dash.
	var c Consistency
	for _, s := range []SimpleShare{c.InconsistentShare(), c.EmailOnlyShare(), c.ReobservedShare()} {
		if s != (SimpleShare{}) || s.Percent(0) != "–" {
			t.Errorf("share of nothing = %+v, printed %q", s, s.Percent(0))
		}
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

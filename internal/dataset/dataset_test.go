package dataset

import (
	"math"
	"reflect"
	"testing"
)

// smallSpec shrinks a paper spec for fast unit testing while keeping
// its distributions.
func smallSpec(spec Spec, n int) Spec {
	spec = spec.Scaled(n)
	if spec.LocalDomains > 0 {
		spec.LocalDomains = 3
	}
	return spec
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallSpec(NotifyEmailSpec(7), 500))
	b := Generate(smallSpec(NotifyEmailSpec(7), 500))
	if len(a.Domains) != len(b.Domains) || len(a.MTAs) != len(b.MTAs) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.Domains {
		if a.Domains[i].Name != b.Domains[i].Name ||
			a.Domains[i].QueryCount != b.Domains[i].QueryCount ||
			a.Domains[i].AlexaRank != b.Domains[i].AlexaRank {
			t.Fatalf("domain %d differs", i)
		}
	}
	c := Generate(smallSpec(NotifyEmailSpec(8), 500))
	same := true
	for i := range a.Domains {
		if a.Domains[i].QueryCount != c.Domains[i].QueryCount {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical query counts")
	}
}

func TestGenerateSizes(t *testing.T) {
	pop := Generate(smallSpec(NotifyEmailSpec(1), 2000))
	if len(pop.Domains) != 2000 {
		t.Errorf("domains: %d", len(pop.Domains))
	}
	if len(pop.MTAs) == 0 || len(pop.MTAs) > 2*2000 {
		t.Errorf("MTAs: %d", len(pop.MTAs))
	}
	for _, d := range pop.Domains {
		if len(d.MTAs) == 0 {
			t.Fatalf("domain %s has no MTAs", d.Name)
		}
		if d.ID == "" || d.Name == "" || d.TLD == "" {
			t.Fatalf("domain incomplete: %+v", d)
		}
	}
	for _, m := range pop.MTAs {
		if !m.Addr4.IsValid() {
			t.Fatalf("MTA %s lacks IPv4", m.ID)
		}
	}
}

func TestTLDDistributionMatchesTable1(t *testing.T) {
	pop := Generate(smallSpec(NotifyEmailSpec(2), 20000))
	shares := map[string]float64{}
	for _, s := range pop.TLDShares() {
		shares[s.TLD] = s.Weight
	}
	for _, want := range NotifyEmailTLDs {
		got := shares[want.TLD]
		if math.Abs(got-want.Weight) > 0.02 {
			t.Errorf("TLD %s share %.3f, want ≈ %.3f", want.TLD, got, want.Weight)
		}
	}
	// com must be the most common, as in Table 1.
	if top := pop.TLDShares()[0]; top.TLD != "com" {
		t.Errorf("top TLD %s", top.TLD)
	}
}

func TestASDistributionMatchesTable3(t *testing.T) {
	pop := Generate(smallSpec(TwoWeekMXSpec(3), 20000))
	shares := map[int]float64{}
	for _, s := range pop.ASShares() {
		shares[s.ASN] = s.DomainShare
	}
	for _, want := range TwoWeekMXASes[:4] {
		got := shares[want.ASN]
		if math.Abs(got-want.DomainShare) > 0.03 {
			t.Errorf("AS%d share %.3f, want ≈ %.3f", want.ASN, got, want.DomainShare)
		}
	}
	top := pop.ASShares()[0]
	if top.ASN != 15169 {
		t.Errorf("top AS is %d (%s), want Google 15169", top.ASN, top.Name)
	}
}

func TestProviderMTASharing(t *testing.T) {
	// Google/Microsoft-grade consolidation: far fewer MTAs than
	// domains in TwoWeekMX (paper Table 2: 22,548 domains, 11,137 MTAs).
	pop := Generate(smallSpec(TwoWeekMXSpec(4), 10000))
	ratio := float64(len(pop.MTAs)) / float64(len(pop.Domains))
	if ratio > 0.75 {
		t.Errorf("MTA:domain ratio %.2f — not enough consolidation", ratio)
	}
	if ratio < 0.2 {
		t.Errorf("MTA:domain ratio %.2f — implausibly consolidated", ratio)
	}
}

func TestV6Fraction(t *testing.T) {
	pop := Generate(smallSpec(NotifyEmailSpec(5), 10000))
	v4, v6 := pop.CountV4V6()
	if v4 != len(pop.MTAs) {
		t.Errorf("v4 count %d of %d", v4, len(pop.MTAs))
	}
	frac := float64(v6) / float64(v4)
	want := float64(NotifyEmailMTAsV6) / float64(NotifyEmailMTAsV4)
	if math.Abs(frac-want) > 0.03 {
		t.Errorf("v6 fraction %.3f, want ≈ %.3f", frac, want)
	}
}

func TestProvidersIncluded(t *testing.T) {
	pop := Generate(smallSpec(NotifyEmailSpec(6), 1000))
	found := map[string]*Domain{}
	for _, d := range pop.Domains {
		if d.Provider != nil {
			found[d.Name] = d
		}
	}
	if len(found) != len(Providers) {
		t.Fatalf("%d provider domains, want %d", len(found), len(Providers))
	}
	g := found["gmail.com"]
	if g == nil || !g.Provider.SPF || !g.Provider.DMARC {
		t.Errorf("gmail.com: %+v", g)
	}
	for _, m := range g.MTAs {
		if m.Tier != TierProvider {
			t.Errorf("provider MTA tier %v", m.Tier)
		}
	}
	q := found["qq.com"]
	if q == nil || q.Provider.SPF {
		t.Errorf("qq.com: %+v", q)
	}
}

func TestAlexaRanks(t *testing.T) {
	spec := smallSpec(NotifyEmailSpec(9), 9000)
	pop := Generate(spec)
	var top1M, top1K int
	for _, d := range pop.Domains {
		if d.AlexaRank > 0 {
			top1M++
			if d.AlexaRank <= 1000 {
				top1K++
			}
		}
	}
	if top1M != spec.AlexaTop1M {
		t.Errorf("Top-1M members %d, want %d", top1M, spec.AlexaTop1M)
	}
	if top1K != spec.AlexaTop1K {
		t.Errorf("Top-1K members %d, want %d", top1K, spec.AlexaTop1K)
	}
}

func TestDeciles(t *testing.T) {
	pop := Generate(smallSpec(TwoWeekMXSpec(10), 5000))
	deciles := pop.Deciles()
	if len(deciles) != 10 {
		t.Fatalf("%d deciles", len(deciles))
	}
	total := 0
	for _, dec := range deciles {
		total += len(dec)
	}
	nonLocal := 0
	for _, d := range pop.Domains {
		if !d.Local {
			nonLocal++
		}
	}
	if total != nonLocal {
		t.Errorf("deciles cover %d of %d non-local domains", total, nonLocal)
	}
	// Ordering: decile 1's minimum demand >= decile 10's maximum.
	min1 := deciles[0][len(deciles[0])-1].QueryCount
	max10 := deciles[9][0].QueryCount
	if min1 < max10 {
		t.Errorf("decile ordering broken: %d < %d", min1, max10)
	}
	// Local domains excluded.
	for _, dec := range deciles {
		for _, d := range dec {
			if d.Local {
				t.Fatalf("local domain %s in deciles", d.Name)
			}
		}
	}
}

func TestLocalDomainsDemand(t *testing.T) {
	pop := Generate(smallSpec(TwoWeekMXSpec(11), 3000))
	locals := 0
	for _, d := range pop.Domains {
		if d.Local {
			locals++
			if d.QueryCount < 100000 {
				t.Errorf("local domain %s demand %d", d.Name, d.QueryCount)
			}
		}
	}
	if locals != 3 {
		t.Errorf("local domains: %d", locals)
	}
}

func TestMTAAddressUniqueness(t *testing.T) {
	pop := Generate(smallSpec(TwoWeekMXSpec(12), 8000))
	seen4 := map[string]bool{}
	for _, m := range pop.MTAs {
		k := m.Addr4.String()
		if seen4[k] {
			t.Fatalf("duplicate MTA address %s", k)
		}
		seen4[k] = true
	}
}

func TestPaperScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation")
	}
	pop := Generate(NotifyEmailSpec(99))
	if len(pop.Domains) != NotifyEmailDomains {
		t.Errorf("domains %d", len(pop.Domains))
	}
	pop2 := Generate(TwoWeekMXSpec(99))
	if len(pop2.Domains) != TwoWeekMXDomains {
		t.Errorf("domains %d", len(pop2.Domains))
	}
	// TwoWeekMX: roughly half as many MTAs as domains (Table 2).
	ratio := float64(len(pop2.MTAs)) / float64(len(pop2.Domains))
	if ratio < 0.25 || ratio > 0.75 {
		t.Errorf("TwoWeekMX MTA ratio %.2f", ratio)
	}
}

// TestSpecScaled pins the one scaling recipe: the values cmd/campaign
// and cmd/experiment typed out by hand before Scaled existed, and that
// a field a spec does not use stays zero.
func TestSpecScaled(t *testing.T) {
	for _, tc := range []struct {
		spec                       Spec
		top1M, top1K, localDomains int
	}{
		{NotifyEmailSpec(1), 2000 / 9, 2000 / 300, 0},
		{TwoWeekMXSpec(1), 0, 0, 2000 / 800},
	} {
		got := tc.spec.Scaled(2000)
		want := tc.spec
		want.NumDomains = 2000
		want.AlexaTop1M, want.AlexaTop1K, want.LocalDomains = tc.top1M, tc.top1K, tc.localDomains
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s.Scaled(2000) = %+v, want %+v", tc.spec.Name, got, want)
		}
	}
	// Small scales keep two local domains so the deciles keep outliers.
	if got := TwoWeekMXSpec(1).Scaled(300).LocalDomains; got != 2 {
		t.Errorf("Scaled(300).LocalDomains = %d, want 2", got)
	}
}

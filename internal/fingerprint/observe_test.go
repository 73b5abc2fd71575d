package fingerprint

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

// TestVectorFieldOrder holds Vector's Trait fields, traits() and
// TraitNames to one length and order: the signature string, Distance
// and Describe all index the three in parallel. A label belongs to a
// field when each of its dash-separated words occurs in the field's
// name ("void-limit" in RespectsVoidLimit).
func TestVectorFieldOrder(t *testing.T) {
	var v Vector
	rv := reflect.ValueOf(&v).Elem()
	n := 0
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Type() != reflect.TypeOf(Unknown) {
			continue
		}
		// Mark the n-th Trait field and see where traits() reports it.
		rv.Field(i).Set(reflect.ValueOf(True))
		got := v.traits()
		name := rv.Type().Field(i).Name
		if n >= len(got) || got[n] != True {
			t.Errorf("field %s is Trait #%d of Vector but not of traits()", name, n)
		}
		if n < len(TraitNames) {
			for _, word := range strings.Split(TraitNames[n], "-") {
				if !strings.Contains(strings.ToLower(name), word) {
					t.Errorf("TraitNames[%d] = %q does not label field %s", n, TraitNames[n], name)
				}
			}
		}
		rv.Field(i).Set(reflect.ValueOf(Unknown))
		n++
	}
	if len(v.traits()) != n || len(TraitNames) != n {
		t.Errorf("%d Trait fields, %d traits(), %d TraitNames", n, len(v.traits()), len(TraitNames))
	}
}

// TestObserveRealCatalog folds the log of real SPF evaluations against
// the served catalog, so a follow-up label renamed in
// internal/policy/catalog.go cannot silently zero an axis the way it
// could with the hand-typed labels of serialMTALog/violatorMTALog.
func TestObserveRealCatalog(t *testing.T) {
	const suffix = "spf-test.dns-lab.example."
	env := &policy.Env{Suffix: suffix, TimeScale: 0.001}
	notify := &policy.NotifyEmailConfig{Suffix: "notify.dns-lab.example.", Contact: "ops@dns-lab.example"}
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{Zones: policy.StudyZones(env, notify), Log: log}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	res := resolver.New(resolver.Config{Server: addr.String(), Timeout: 3 * time.Second})
	validators := map[string]spf.Options{
		"strict": {},
		"legacy": {LookupLimit: -1, VoidLookupLimit: -1, MXAddressLimit: -1, MXFallbackA: true},
	}
	client := netip.MustParseAddr("203.0.113.9")
	for id, opts := range validators {
		checker := &spf.Checker{Resolver: res, Options: opts}
		for i := 1; i <= 11; i++ {
			domain := fmt.Sprintf("t%02d.%s.%s", i, id, suffix)
			checker.CheckHost(context.Background(), client, domain, "probe@"+domain, "helo."+domain)
		}
	}

	obs := Observe(log.Entries())
	refs := make(map[string]Vector)
	for _, r := range References() {
		refs[r.Name] = r.Vector
	}
	for id, name := range map[string]string{"strict": "strict-rfc7208", "legacy": "limit-ignoring-legacy"} {
		o, ref := obs[id], refs[name]
		if o == nil {
			t.Fatalf("%s: no observation", id)
		}
		_, known := Distance(&ref, &ref)
		if d, c := Distance(o.Vector(), &ref); d != 0 || c != known || c == 0 {
			t.Errorf("%s vs %s: %d disagreements over %d of %d decided positions\n  got  %s\n  want %s",
				id, name, d, c, known, o.Vector().Signature(), ref.Signature())
		}
	}
	if s, l := obs["strict"], obs["legacy"]; s != nil && l != nil {
		// A compliant validator issues limit + 1 void queries: it cannot
		// know the limit is hit before the third comes back empty.
		if s.VoidQueries != spf.DefaultVoidLookupLimit+1 || l.VoidQueries != 5 {
			t.Errorf("void queries: strict %d, legacy %d; want 3, 5", s.VoidQueries, l.VoidQueries)
		}
		if s.LimitsFollowUps > 10 || l.LimitsFollowUps != policy.LimitsTreeSize() {
			t.Errorf("limits follow-ups: strict %d, legacy %d; want <= 10, 46", s.LimitsFollowUps, l.LimitsFollowUps)
		}
		if s.MXAddrLookups > 10 || l.MXAddrLookups != policy.MXLimitCount {
			t.Errorf("MX address lookups: strict %d, legacy %d; want <= 10, 20", s.MXAddrLookups, l.MXAddrLookups)
		}
	}
}

// TestObserveAllocs pins what makes folding cheap: once an MTA has its
// Observation, folding an entry of it allocates nothing.
func TestObserveAllocs(t *testing.T) {
	log := append(serialMTALog("m1"), violatorMTALog("m2")...)
	obs := Observe(log)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range log {
			obs.Add(&log[i])
		}
	})
	if allocs != 0 {
		t.Errorf("re-folding %d entries allocated %.1f times", len(log), allocs)
	}
}

// TestDomainObservationRules is the NotifyEmail zone's label rules one
// by one — the rules selftest's TestAssess* archetypes and experiment's
// TestDomainObservations read end to end through a real validator.
func TestDomainObservationRules(t *testing.T) {
	at := func(ms int) time.Time { return entry("", "", nil, 0, ms).Time }
	cases := []struct {
		name string
		e    dnsserver.LogEntry
		want DomainObservation // besides ID and Queries
	}{
		{"policy TXT", entry("d1", "", nil, dns.TypeTXT, 5), DomainObservation{PolicyTXTAt: at(5)}},
		{"address query for the name itself", entry("d1", "", nil, dns.TypeA, 5), DomainObservation{}},
		{"include chain", entry("d1", "", []string{"l2"}, dns.TypeTXT, 5), DomainObservation{}},
		{"a-mechanism target, A", entry("d1", "", []string{"mta"}, dns.TypeA, 5), DomainObservation{MTAAddr: true}},
		{"a-mechanism target, AAAA", entry("d1", "", []string{"mta"}, dns.TypeAAAA, 5), DomainObservation{MTAAddr: true}},
		{"DKIM key", entry("d1", "", []string{"exp", "_domainkey"}, dns.TypeTXT, 5), DomainObservation{DKIMKey: true}},
		{"bare _domainkey", entry("d1", "", []string{"_domainkey"}, dns.TypeTXT, 5), DomainObservation{}},
		{"DMARC policy", entry("d1", "", []string{"_dmarc"}, dns.TypeTXT, 5), DomainObservation{DMARC: true}},
		{"deeper _dmarc", entry("d1", "", []string{"_dmarc", "sub"}, dns.TypeTXT, 5), DomainObservation{}},
	}
	for _, c := range cases {
		obs := make(DomainObservations)
		obs.Add(&c.e)
		c.want.Queries = 1
		if got := obs["d1"]; got == nil || *got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}

	// The other zone's entries and unattributed ones are not this
	// fold's, as this zone's are not Observations'.
	obs, testZone := make(DomainObservations), make(Observations)
	for _, e := range []dnsserver.LogEntry{
		entry("m1", "t01", nil, dns.TypeTXT, 1),
		entry("", "", nil, dns.TypeTXT, 2),
	} {
		obs.Add(&e)
	}
	notify := entry("d1", "", nil, dns.TypeTXT, 3)
	testZone.Add(&notify)
	if len(obs) != 0 || len(testZone) != 0 {
		t.Errorf("folds crossed zones: %v, %v", obs, testZone)
	}

	// The earliest policy fetch stands, whichever order they arrive in.
	early, late := entry("d1", "", nil, dns.TypeTXT, 1), entry("d1", "", nil, dns.TypeTXT, 9)
	for _, order := range [][]*dnsserver.LogEntry{{&early, &late}, {&late, &early}} {
		obs := make(DomainObservations)
		for _, e := range order {
			obs.Add(e)
		}
		if o := obs["d1"]; !o.FetchedPolicy() || !o.PolicyTXTAt.Equal(early.Time) || o.Queries != 2 {
			t.Errorf("two fetches: %+v", o)
		}
	}
}

// TestDomainObserveAllocs is TestObserveAllocs for the NotifyEmail
// zone: once a domain has its DomainObservation, folding an entry of it
// allocates nothing.
func TestDomainObserveAllocs(t *testing.T) {
	log := []dnsserver.LogEntry{
		entry("d1", "", nil, dns.TypeTXT, 0),
		entry("d1", "", []string{"l1"}, dns.TypeTXT, 1),
		entry("d1", "", []string{"mta"}, dns.TypeA, 2),
		entry("d1", "", []string{"exp", "_domainkey"}, dns.TypeTXT, 3),
		entry("d2", "", []string{"_dmarc"}, dns.TypeTXT, 4),
	}
	obs := make(DomainObservations)
	for i := range log {
		obs.Add(&log[i])
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range log {
			obs.Add(&log[i])
		}
	})
	if allocs != 0 {
		t.Errorf("re-folding %d entries allocated %.1f times", len(log), allocs)
	}
}

// BenchmarkObserve is the per-entry cost of the one reading of the
// log: BENCHMARK.json's `log-ingest` workload runs it under each of its
// four analyses (analyze_s), `probe-campaign` in its closing analyses.
func BenchmarkObserve(b *testing.B) {
	var log []dnsserver.LogEntry
	for i := 0; i < 100; i++ {
		log = append(log, serialMTALog(fmt.Sprintf("s%03d", i))...)
		log = append(log, violatorMTALog(fmt.Sprintf("v%03d", i))...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Observe(log)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log)), "ns/entry")
}

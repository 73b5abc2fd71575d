package fingerprint

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// realCatalogLog serves policy.StudyZones and evaluates every catalog
// policy with a default spf.Checker (MTA "strict") and with every limit
// off (MTA "legacy"), returning the query log.
func realCatalogLog(t *testing.T) []dnsserver.LogEntry {
	t.Helper()
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
		for _, test := range policy.Catalog() {
			domain := test.ID + "." + id + "." + suffix
			checker.CheckHost(context.Background(), client, domain, "probe@"+domain, "helo."+domain)
		}
	}
	return log.Entries()
}

// TestObserveRealCatalog folds the log of real SPF evaluations of all
// 39 served policies, so a row renamed in internal/policy cannot
// silently zero an axis the way it could with hand-typed labels.
func TestObserveRealCatalog(t *testing.T) {
	log := realCatalogLog(t)

	// Every name the two validators ask is a row of its policy, but for
	// the listed policies, each for its reason. The base name's TXT is a
	// row even where nothing is published there (t28, t31).
	unpublished := map[string]string{
		"t14": "exists:%{ir}.x.<base> expands to the client address's labels, a name no table lists",
		"t33": "exists:%{l}.lp.<base> expands to the sender's local part",
	}
	seen := map[string]bool{}
	for _, e := range log {
		_, row, ok := policy.Row(e.TestID, e.Rest, e.Type)
		switch {
		case !ok:
			t.Errorf("%s: not a catalog policy", e.TestID)
		case row == policy.Unpublished && unpublished[e.TestID] == "":
			t.Errorf("%s: %s %s was asked but is no row of the policy", e.TestID, strings.Join(e.Rest, "."), e.Type)
		case row == policy.Unpublished:
			seen[e.TestID] = true
		}
	}
	for id, why := range unpublished {
		if !seen[id] {
			t.Errorf("%s asked no unpublished name, yet is listed (%s)", id, why)
		}
	}
	// Every policy's index holds its _dmarc row too.
	for _, test := range policy.Catalog() {
		if _, row, _ := policy.Row(test.ID, []string{"_dmarc"}, dns.TypeTXT); row == policy.Unpublished || row == policy.Base {
			t.Errorf("%s: _dmarc is not a row of its own", test.ID)
		}
	}

	obs := Observe(log)
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
	// A compliant validator asks limit + 1 void names: it cannot know
	// the limit is hit before the third comes back empty. Both ask one
	// address type per name, the client's.
	s, l := obs["strict"], obs["legacy"]
	for _, c := range []struct {
		name           string
		r              policy.Reading
		strict, legacy int // strict -1: at most the spf default limit of 10
	}{
		{"void names", policy.Void, spf.DefaultVoidLookupLimit + 1, 5},
		{"limits tree", policy.LimitsTree, -1, policy.LimitsTree.Len()},
		{"MX host addresses", policy.MXHosts, -1, policy.MXLimitCount},
	} {
		strict := s.Count(c.r) == c.strict || c.strict < 0 && s.Count(c.r) <= 10
		if !strict || l.Count(c.r) != c.legacy {
			t.Errorf("%s: strict %d, legacy %d; want %d, %d", c.name, s.Count(c.r), l.Count(c.r), c.strict, c.legacy)
		}
	}
}

// TestFoldLaws holds the fold to a join-semilattice over random entries
// drawn from the names real validators ask of the catalog plus names it
// does not publish: folding an entry twice is folding it once, any
// order of the entries folds the same, and a log folded in two parts —
// the second first, or overlapping as a resumed run re-reads its tail —
// folds like the whole. So the split fold is exact: merging the folds
// of two parts is folding the whole, wherever the split falls, and
// Observe equals the serial fold at any GOMAXPROCS.
func TestFoldLaws(t *testing.T) {
	var pool []dnsserver.LogEntry
	for _, e := range realCatalogLog(t) {
		pool = append(pool, dnsserver.LogEntry{TestID: e.TestID, Rest: e.Rest, Type: e.Type})
	}
	for _, test := range policy.Catalog() {
		for _, owner := range [][]string{{"zz"}, {"x", "zz"}, {"mx20"}, {"v9"}} {
			pool = append(pool, dnsserver.LogEntry{TestID: test.ID, Rest: owner, Type: dns.TypeA})
		}
	}
	rng := rand.New(rand.NewSource(1))
	log := make([]dnsserver.LogEntry, 300)
	for i := range log {
		e := pool[rng.Intn(len(pool))]
		e.MTAID = fmt.Sprintf("m%d", rng.Intn(3))
		e.Time = time.Unix(1_600_000_000, int64(rng.Intn(50))*int64(time.Millisecond))
		e.Transport = []string{"udp", "tcp"}[rng.Intn(2)]
		e.OverIPv6 = rng.Intn(2) == 0
		log[i] = e
	}
	want := fold(log)
	addAll := func(parts ...[]dnsserver.LogEntry) Observations {
		obs := make(Observations)
		for _, part := range parts {
			for i := range part {
				obs.Add(&part[i])
			}
		}
		return obs
	}

	var doubled []dnsserver.LogEntry
	for _, e := range log {
		doubled = append(doubled, e, e)
	}
	if !reflect.DeepEqual(addAll(doubled), want) {
		t.Error("Add(e); Add(e) folds differently from Add(e)")
	}
	for seed := int64(1); seed <= 5; seed++ {
		shuffled := append([]dnsserver.LogEntry(nil), log...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if !reflect.DeepEqual(addAll(shuffled), want) {
			t.Errorf("permutation %d folds differently", seed)
		}
	}
	for i := 0; i <= len(log); i++ {
		if !reflect.DeepEqual(addAll(log[i:], log[:i]), want) {
			t.Fatalf("split at %d: the second part folded first differs", i)
		}
		if j := min(i+25, len(log)); !reflect.DeepEqual(addAll(log[:j], log[i:]), want) {
			t.Fatalf("split at %d: re-reading %d entries differs", i, j-i)
		}
	}

	// Splits put an MTA's earliest t01 time in either part; count the
	// splits that leave it to the second, so the merge must take it
	// from there.
	secondHolds := 0
	for i := 0; i <= len(log); i++ {
		for _, swap := range []bool{false, true} {
			a, b := fold(log[:i]), fold(log[i:])
			for id, o := range a {
				if !o.targetAt.Equal(want[id].targetAt) || !o.lastAt.Equal(want[id].lastAt) {
					secondHolds++
				}
			}
			if swap {
				a, b = b, a
			}
			a.merge(b)
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("split at %d (swapped %v): merge of the parts' folds differs", i, swap)
			}
		}
	}
	if secondHolds == 0 {
		t.Error("no split left an earliest t01 time to the second part")
	}

	// Observe's split fold at several part counts, on a log large enough
	// for eight parts: grouped by MTA, as a campaign writes its log, and
	// the same entries interleaved.
	big := make([]dnsserver.LogEntry, 10*minPartEntries)
	for i := range big {
		big[i] = log[rng.Intn(len(log))]
		big[i].MTAID = fmt.Sprintf("g%d", i/50)
	}
	interleaved := append([]dnsserver.LogEntry(nil), big...)
	rng.Shuffle(len(interleaved), func(i, j int) {
		interleaved[i], interleaved[j] = interleaved[j], interleaved[i]
	})
	wantBig := fold(big)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for name, l := range map[string][]dnsserver.LogEntry{"grouped": big, "interleaved": interleaved} {
			if !reflect.DeepEqual(Observe(l), wantBig) {
				t.Errorf("GOMAXPROCS %d: Observe of the %s log differs from the serial fold", procs, name)
			}
		}
	}
}

// TestFoldReadsOnlyRows: a name its policy does not publish — or one
// no reading names — moves no reading. Each entry is folded into an MTA
// standing exactly on the lookup, void and MX limit lines, where one
// more counted name would flip a trait; the owners follow the
// unpublished owners of internal/policy's answers.golden.
func TestFoldReadsOnlyRows(t *testing.T) {
	cases := []struct {
		name string
		e    dnsserver.LogEntry
		row  bool // a published row that no reading names, not Unpublished
	}{
		{"_dmarc under t02", entry("m1", "t02", []string{"_dmarc"}, dns.TypeTXT, 200), true},
		{"two labels under t02", entry("m1", "t02", []string{"x", "zz"}, dns.TypeTXT, 200), false},
		{"one label under t02", entry("m1", "t02", []string{"zz"}, dns.TypeTXT, 200), false},
		{"past t02's tree", entry("m1", "t02", []string{"n9"}, dns.TypeTXT, 200), false},
		{"address for a t02 node", entry("m1", "t02", []string{limitsNodes[20]}, dns.TypeA, 200), false},
		{"v9 under t06", entry("m1", "t06", []string{"v9"}, dns.TypeA, 200), false},
		{"void under t06", entry("m1", "t06", []string{"void"}, dns.TypeA, 200), false},
		{"a void name's TXT", entry("m1", "t06", []string{"v4"}, dns.TypeTXT, 200), false},
		{"the MX-less name's TXT", entry("m1", "t07", []string{"nomx"}, dns.TypeTXT, 200), false},
		{"two labels under t06", entry("m1", "t06", []string{"x", "v4"}, dns.TypeA, 200), false},
		{"mx20 under t11", entry("m1", "t11", []string{"mx20"}, dns.TypeA, 200), false},
		{"mxbackup under t11", entry("m1", "t11", []string{"mxbackup"}, dns.TypeA, 200), false},
		{"an MX host's TXT", entry("m1", "t11", []string{"mx15"}, dns.TypeTXT, 200), false},
		{"l1 address over IPv6 under t10", entry("m1", "t10", []string{"l1"}, dns.TypeAAAA, 200, overIPv6), false},
	}
	for _, c := range cases {
		obs := Observe(serialMTALog("m1"))
		before := *obs["m1"]
		obs.Add(&c.e)
		after := *obs["m1"]
		p, row, _ := policy.Row(c.e.TestID, c.e.Rest, c.e.Type)
		if added := after.asked[p] &^ before.asked[p]; (row == policy.Unpublished) == c.row || added != row {
			t.Errorf("%s: set rows %#x (row %#x)", c.name, added, row)
		}
		after.asked = before.asked
		if !reflect.DeepEqual(before.Vector(), obs["m1"].Vector()) || after != before {
			t.Errorf("%s moved a reading: %s -> %s", c.name, before.Vector().Signature(), obs["m1"].Vector().Signature())
		}
		for _, r := range []policy.Reading{policy.LimitsTree, policy.Void, policy.MXHosts} {
			if before.Count(r) != obs["m1"].Count(r) {
				t.Errorf("%s moved a count: %d -> %d", c.name, before.Count(r), obs["m1"].Count(r))
			}
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
// It folds the log grouped by MTA, as a campaign writes it, and the same
// entries shuffled with a fixed seed, where every part of the split
// fold meets most MTAs and the merge has the most to do.
func BenchmarkObserve(b *testing.B) {
	var grouped []dnsserver.LogEntry
	for i := 0; i < 100; i++ {
		grouped = append(grouped, serialMTALog(fmt.Sprintf("s%03d", i))...)
		grouped = append(grouped, violatorMTALog(fmt.Sprintf("v%03d", i))...)
	}
	interleaved := append([]dnsserver.LogEntry(nil), grouped...)
	rand.New(rand.NewSource(1)).Shuffle(len(interleaved), func(i, j int) {
		interleaved[i], interleaved[j] = interleaved[j], interleaved[i]
	})
	for _, c := range []struct {
		name string
		log  []dnsserver.LogEntry
	}{{"grouped", grouped}, {"interleaved", interleaved}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				observeSink = Observe(c.log)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.log)), "ns/entry")
		})
	}
}

// observeSink keeps BenchmarkObserve's fold, as every caller keeps it.
var observeSink Observations

// TestFoldKeysOwnTheirStrings decodes a log the way cmd/analyze and
// log-ingest do, whose entries share their chunk's string storage, and
// folds it: no fold key and no Observation's MTAID may alias a decoded
// string, or keeping the fold would keep every chunk's strings alive.
func TestFoldKeysOwnTheirStrings(t *testing.T) {
	var jsonl []byte
	for i := 0; i < 20; i++ {
		for _, e := range serialMTALog(fmt.Sprintf("s%03d", i)) {
			jsonl = dnsserver.AppendLogJSON(jsonl, e)
		}
		jsonl = dnsserver.AppendLogJSON(jsonl, entry(fmt.Sprintf("d%03d", i), "", nil, dns.TypeTXT, 0))
	}
	var entries []dnsserver.LogEntry
	err := dnsserver.ParForEachLogJSONOrdered(bytes.NewReader(jsonl), 2, func(e dnsserver.LogEntry) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decoded := map[*byte]bool{}
	for _, e := range entries {
		decoded[unsafe.StringData(e.MTAID)] = true
	}
	obs, domains := Observe(entries), make(DomainObservations)
	for i := range entries {
		domains.Add(&entries[i])
	}
	if len(obs) != 20 || len(domains) != 20 {
		t.Fatalf("folded %d MTAs and %d domains, want 20 each", len(obs), len(domains))
	}
	for id, o := range obs {
		if decoded[unsafe.StringData(id)] || decoded[unsafe.StringData(o.MTAID)] {
			t.Errorf("Observations key or MTAID %q aliases a decoded entry's string", id)
		}
	}
	for id := range domains {
		if decoded[unsafe.StringData(id)] {
			t.Errorf("DomainObservations key %q aliases a decoded entry's string", id)
		}
	}
}

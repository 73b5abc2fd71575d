package policy

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

const suffix = "spf-test.dns-lab.example."

// probeIP is the simulated probing client address; policies are
// designed so it never matches.
var probeIP = netip.MustParseAddr("198.18.0.1")

// harness wires the full stack: catalog responders behind a live
// synthesizing DNS server, a caching stub resolver, and an SPF checker.
type harness struct {
	srv *dnsserver.Server
	log *dnsserver.QueryLog
	res *resolver.Resolver
}

func newHarness(t *testing.T, opts spf.Options) (*harness, *spf.Checker) {
	t.Helper()
	env := &Env{Suffix: suffix, TimeScale: 0.01} // 100ms -> 1ms
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{
			Suffix:     suffix,
			Responders: RespondersWithDMARC(env, "contact@dns-lab.example"),
		}},
		Log: log,
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	res := resolver.New(resolver.Config{Server: addr.String(), Timeout: 3 * time.Second})
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	return &harness{srv: srv, log: log, res: res},
		&spf.Checker{Resolver: res, Options: opts}
}

// check evaluates the given test policy for one synthetic MTA id.
func (h *harness) check(t *testing.T, c *spf.Checker, testID, mtaID string) *spf.Outcome {
	t.Helper()
	domain := testID + "." + mtaID + "." + strings.TrimSuffix(suffix, ".")
	return c.CheckHost(context.Background(), probeIP, domain,
		"spf-test@"+domain, "probe.dns-lab.example")
}

// queries returns logged query summaries ("TYPE name") for one MTA id.
func (h *harness) queries(mtaID string) []string {
	var out []string
	for _, e := range h.log.Entries() {
		if e.MTAID == mtaID {
			out = append(out, e.Type.String()+" "+e.Name)
		}
	}
	return out
}

func TestCatalogComplete(t *testing.T) {
	tests := Catalog()
	if len(tests) != 39 {
		t.Fatalf("catalog has %d tests, want 39", len(tests))
	}
	seen := map[string]bool{}
	for i, test := range tests {
		if test.ID == "" || test.Name == "" || test.Description == "" || len(test.rows) == 0 && test.miss.RCode == 0 {
			t.Errorf("test %d (%s) incomplete", i, test.ID)
		}
		if seen[test.ID] {
			t.Errorf("duplicate id %s", test.ID)
		}
		seen[test.ID] = true
		want := fmt.Sprintf("t%02d", i+1)
		if test.ID != want {
			t.Errorf("test %d has id %s, want %s", i, test.ID, want)
		}
	}
}

func TestLimitsTreeShape(t *testing.T) {
	if got := LimitsTree.Len(); got != 46 {
		t.Errorf("limits tree has %d nodes, want 46 (paper Figure 4)", got)
	}
	if n := strings.Count(limitsRows()[0].data, "include:"); n != 8 {
		t.Errorf("L1 has %d policies", n)
	}
}

func TestSerialValidatorOrdering(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	out := h.check(t, c, "t01", "m0001")
	if out.Result != spf.Fail {
		t.Fatalf("t01 serial result %s (%v)", out.Result, out.Err)
	}
	qs := h.queries("m0001")
	var aIdx, l3Idx = -1, -1
	for i, q := range qs {
		if strings.HasPrefix(q, "A foo.") {
			aIdx = i
		}
		if strings.HasPrefix(q, "TXT l3.") {
			l3Idx = i
		}
	}
	if aIdx < 0 || l3Idx < 0 {
		t.Fatalf("expected queries missing: %v", qs)
	}
	if aIdx < l3Idx {
		t.Errorf("serial validator queried A before L3: %v", qs)
	}
}

func TestParallelValidatorOrdering(t *testing.T) {
	h, c := newHarness(t, spf.Options{Prefetch: true})
	out := h.check(t, c, "t01", "m0002")
	if out.Result != spf.Fail {
		t.Fatalf("t01 parallel result %s (%v)", out.Result, out.Err)
	}
	qs := h.queries("m0002")
	var aIdx, l3Idx = -1, -1
	for i, q := range qs {
		if strings.HasPrefix(q, "A foo.") && aIdx < 0 {
			aIdx = i
		}
		if strings.HasPrefix(q, "TXT l3.") {
			l3Idx = i
		}
	}
	if aIdx < 0 || l3Idx < 0 {
		t.Fatalf("expected queries missing: %v", qs)
	}
	// With prefetch the A query beats the 3-hop shaped include chain.
	if aIdx > l3Idx {
		t.Errorf("parallel validator queried A after L3: %v", qs)
	}
}

func TestLookupLimitsCompliant(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	out := h.check(t, c, "t02", "m0003")
	if out.Result != spf.PermError {
		t.Fatalf("compliant t02 result %s (%v)", out.Result, out.Err)
	}
	// Base query plus at most 10 include lookups.
	if got := len(h.queries("m0003")); got > 11 {
		t.Errorf("compliant validator issued %d queries on t02", got)
	}
}

func TestLookupLimitsViolating(t *testing.T) {
	h, c := newHarness(t, spf.Options{LookupLimit: -1, VoidLookupLimit: -1})
	out := h.check(t, c, "t02", "m0004")
	if out.Result != spf.Neutral {
		t.Fatalf("violating t02 result %s (%v)", out.Result, out.Err)
	}
	// 1 base + 46 tree nodes.
	if got := len(h.queries("m0004")); got != 47 {
		t.Errorf("violating validator issued %d queries on t02, want 47", got)
	}
}

func TestVoidLookupPolicy(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	out := h.check(t, c, "t06", "m0005")
	if out.Result != spf.PermError {
		t.Fatalf("t06 compliant: %s", out.Result)
	}
	aQueries := 0
	for _, q := range h.queries("m0005") {
		if strings.HasPrefix(q, "A v") {
			aQueries++
		}
	}
	if aQueries != 3 {
		t.Errorf("compliant validator made %d void A lookups, want 3", aQueries)
	}

	h2, c2 := newHarness(t, spf.Options{VoidLookupLimit: -1})
	if out := h2.check(t, c2, "t06", "m0006"); out.Result != spf.Neutral {
		t.Fatalf("t06 violating: %s (%v)", out.Result, out.Err)
	}
	aQueries = 0
	for _, q := range h2.queries("m0006") {
		if strings.HasPrefix(q, "A v") {
			aQueries++
		}
	}
	if aQueries != 5 {
		t.Errorf("violating validator made %d void A lookups, want 5", aQueries)
	}
}

func TestMXFallbackPolicy(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	if out := h.check(t, c, "t07", "m0007"); out.Result != spf.Neutral {
		t.Fatalf("t07 compliant: %s (%v)", out.Result, out.Err)
	}
	for _, q := range h.queries("m0007") {
		if strings.HasPrefix(q, "A nomx.") || strings.HasPrefix(q, "AAAA nomx.") {
			t.Errorf("compliant validator issued forbidden fallback: %v", q)
		}
	}

	h2, c2 := newHarness(t, spf.Options{MXFallbackA: true, VoidLookupLimit: -1})
	h2.check(t, c2, "t07", "m0008")
	found := false
	for _, q := range h2.queries("m0008") {
		if strings.HasPrefix(q, "A nomx.") {
			found = true
		}
	}
	if !found {
		t.Error("violating validator did not issue the fallback A query")
	}
}

func TestMultipleRecordsPolicy(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	if out := h.check(t, c, "t08", "m0009"); out.Result != spf.PermError {
		t.Fatalf("t08 compliant: %s", out.Result)
	}
	for _, q := range h.queries("m0009") {
		if strings.HasPrefix(q, "A one.") || strings.HasPrefix(q, "A two.") {
			t.Errorf("compliant validator followed a policy: %v", q)
		}
	}

	h2, c2 := newHarness(t, spf.Options{FollowMultipleRecords: true, VoidLookupLimit: -1})
	h2.check(t, c2, "t08", "m0010")
	one, two := false, false
	for _, q := range h2.queries("m0010") {
		if strings.HasPrefix(q, "A one.") {
			one = true
		}
		if strings.HasPrefix(q, "A two.") {
			two = true
		}
	}
	if !one || two {
		t.Errorf("follow-one validator: one=%v two=%v", one, two)
	}
}

func TestTCPFallbackPolicy(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	if out := h.check(t, c, "t09", "m0011"); out.Result != spf.Neutral {
		t.Fatalf("t09: %s (%v)", out.Result, out.Err)
	}
	sawTCP := false
	for _, e := range h.log.Entries() {
		if e.MTAID == "m0011" && e.Transport == "tcp" {
			sawTCP = true
		}
	}
	if !sawTCP {
		t.Error("no TCP retry observed")
	}
}

func TestMXLimitPolicy(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	if out := h.check(t, c, "t11", "m0012"); out.Result != spf.PermError {
		t.Fatalf("t11 compliant: %s", out.Result)
	}
	count := 0
	for _, q := range h.queries("m0012") {
		if strings.HasPrefix(q, "A mx") && !strings.HasPrefix(q, "A mxfarm") {
			count++
		}
	}
	if count != 10 {
		t.Errorf("compliant validator made %d MX-host lookups, want 10", count)
	}

	h2, c2 := newHarness(t, spf.Options{MXAddressLimit: -1, VoidLookupLimit: -1})
	h2.check(t, c2, "t11", "m0013")
	count = 0
	for _, q := range h2.queries("m0013") {
		if strings.HasPrefix(q, "A mx") && !strings.HasPrefix(q, "A mxfarm") {
			count++
		}
	}
	if count != 20 {
		t.Errorf("violating validator made %d MX-host lookups, want 20", count)
	}
}

func TestSyntaxErrorPolicies(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	if out := h.check(t, c, "t04", "m0014"); out.Result != spf.PermError {
		t.Errorf("t04 compliant: %s", out.Result)
	}
	for _, q := range h.queries("m0014") {
		if strings.HasPrefix(q, "A after.") {
			t.Error("compliant validator continued past main-policy error")
		}
	}
	h2, c2 := newHarness(t, spf.Options{IgnoreSyntaxErrors: true, VoidLookupLimit: -1})
	h2.check(t, c2, "t04", "m0015")
	found := false
	for _, q := range h2.queries("m0015") {
		if strings.HasPrefix(q, "A after.") {
			found = true
		}
	}
	if !found {
		t.Error("tolerant validator did not continue past the error")
	}

	// Child-policy error (t05): tolerant validators continue in the
	// parent, observed via the cont name.
	h3, c3 := newHarness(t, spf.Options{IgnoreSyntaxErrors: true, VoidLookupLimit: -1})
	h3.check(t, c3, "t05", "m0016")
	found = false
	for _, q := range h3.queries("m0016") {
		if strings.HasPrefix(q, "A cont.") {
			found = true
		}
	}
	if !found {
		t.Error("tolerant validator did not continue past the child error")
	}
}

func TestBaselineAndQualifierPolicies(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	cases := []struct {
		id   string
		mta  string
		want spf.Result
	}{
		{"t12", "m0020", spf.Fail},
		{"t20", "m0021", spf.Fail},
		{"t21", "m0022", spf.SoftFail},
		{"t22", "m0023", spf.Neutral},
		{"t23", "m0024", spf.Pass},
		{"t24", "m0025", spf.Fail},    // probe IP outside 192.0.2.0/24
		{"t25", "m0026", spf.Fail},    // probe is IPv4
		{"t30", "m0027", spf.Neutral}, // empty policy
		{"t31", "m0028", spf.None},    // NXDOMAIN base
		{"t38", "m0029", spf.Fail},    // whitespace tokenizing
	}
	for _, tc := range cases {
		out := h.check(t, c, tc.id, tc.mta)
		if out.Result != tc.want {
			t.Errorf("%s: %s (%v), want %s", tc.id, out.Result, out.Err, tc.want)
		}
	}
}

func TestStructuralPolicies(t *testing.T) {
	h, c := newHarness(t, spf.Options{})
	// t13 redirect: fails via the redirected policy.
	if out := h.check(t, c, "t13", "m0030"); out.Result != spf.Fail {
		t.Errorf("t13: %s (%v)", out.Result, out.Err)
	}
	// t16 boundary: exactly 10 lookups — a compliant validator finishes.
	if out := h.check(t, c, "t16", "m0031"); out.Result != spf.Neutral {
		t.Errorf("t16: %s (%v)", out.Result, out.Err)
	}
	// t17 include-none: permerror.
	if out := h.check(t, c, "t17", "m0032"); out.Result != spf.PermError {
		t.Errorf("t17: %s", out.Result)
	}
	// t18 include loop: terminates with permerror via the lookup limit.
	if out := h.check(t, c, "t18", "m0033"); out.Result != spf.PermError {
		t.Errorf("t18: %s", out.Result)
	}
	// t19 redirect loop: also bounded.
	if out := h.check(t, c, "t19", "m0034"); out.Result != spf.PermError {
		t.Errorf("t19: %s", out.Result)
	}
	// t26 unknown modifier: ignored, fails on -all... policy ends ?all.
	if out := h.check(t, c, "t26", "m0035"); out.Result != spf.Neutral {
		t.Errorf("t26: %s (%v)", out.Result, out.Err)
	}
	// t27 multi-string TXT: parses and evaluates.
	if out := h.check(t, c, "t27", "m0036"); out.Result != spf.Neutral {
		t.Errorf("t27: %s (%v)", out.Result, out.Err)
	}
	// t28 type99-only: no TXT policy, result none.
	if out := h.check(t, c, "t28", "m0037"); out.Result != spf.None {
		t.Errorf("t28: %s", out.Result)
	}
	// t29 uppercase: case-insensitive parse, fail on -ALL.
	if out := h.check(t, c, "t29", "m0038"); out.Result != spf.Fail {
		t.Errorf("t29: %s (%v)", out.Result, out.Err)
	}
	// t34 dual CIDR.
	if out := h.check(t, c, "t34", "m0039"); out.Result != spf.Fail {
		t.Errorf("t34: %s (%v)", out.Result, out.Err)
	}
	// t35 MX boundary: exactly 10 MX records evaluate cleanly.
	if out := h.check(t, c, "t35", "m0040"); out.Result != spf.Neutral {
		t.Errorf("t35: %s (%v)", out.Result, out.Err)
	}
	// t36 void boundary: 3 voids exceed the limit of 2.
	if out := h.check(t, c, "t36", "m0041"); out.Result != spf.PermError {
		t.Errorf("t36: %s", out.Result)
	}
	// t37 CNAME policy.
	if out := h.check(t, c, "t37", "m0042"); out.Result != spf.Fail {
		t.Errorf("t37: %s (%v)", out.Result, out.Err)
	}
	// t39 redirect chain: exceeds the lookup limit.
	if out := h.check(t, c, "t39", "m0043"); out.Result != spf.PermError {
		t.Errorf("t39: %s", out.Result)
	}
}

func TestDMARCWrapping(t *testing.T) {
	h, _ := newHarness(t, spf.Options{})
	// Query the DMARC record of a t12 From domain directly through the
	// resolver stack.
	name := "_dmarc.t12.m0050." + suffix
	txts, err := h.res.LookupTXT(context.Background(), name)
	if err != nil || len(txts) != 1 {
		t.Fatalf("DMARC lookup: %v, %v", txts, err)
	}
	if !strings.HasPrefix(txts[0], "v=DMARC1; p=reject") {
		t.Errorf("DMARC record %q", txts[0])
	}
	if !strings.Contains(txts[0], "mailto:contact@dns-lab.example") {
		t.Errorf("contact missing from %q", txts[0])
	}
	// The query is attributed to the right MTA and test.
	entries := h.log.Entries()
	if len(entries) != 1 || entries[0].MTAID != "m0050" || entries[0].TestID != "t12" || entries[0].Rest[0] != "_dmarc" {
		t.Errorf("attribution: %+v", entries)
	}
}

func TestNotifyEmailResponder(t *testing.T) {
	cfg := &NotifyEmailConfig{
		Suffix:        "dsav-mail.dns-lab.example.",
		SenderV4:      netip.MustParseAddr("203.0.113.10"),
		SenderV6:      netip.MustParseAddr("2001:db8::10"),
		DKIMSelector:  "exp",
		DKIMKeyRecord: "v=DKIM1; k=rsa; p=FAKEKEY",
		Contact:       "contact@dns-lab.example",
		TimeScale:     0.01,
	}
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{
			Suffix:     cfg.Suffix,
			LabelDepth: 1,
			Default:    cfg.Responder(),
		}},
		Log: log,
	}
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
	ctx := context.Background()

	// The sending MTA must pass SPF from its published address.
	c := &spf.Checker{Resolver: res, Options: spf.Options{Timeout: 10 * time.Second}}
	domain := "d0001.dsav-mail.dns-lab.example"
	out := c.CheckHost(ctx, cfg.SenderV4, domain, "spf-test@"+domain, "mta.dns-lab.example")
	if out.Result != spf.Pass {
		t.Errorf("sender SPF: %s (%v)", out.Result, out.Err)
	}
	// A spoofer must fail.
	out = c.CheckHost(ctx, netip.MustParseAddr("198.51.100.99"), domain, "spf-test@"+domain, "x")
	if out.Result != spf.Fail {
		t.Errorf("spoofer SPF: %s", out.Result)
	}
	// And over IPv6.
	out = c.CheckHost(ctx, cfg.SenderV6, domain, "spf-test@"+domain, "mta.dns-lab.example")
	if out.Result != spf.Pass {
		t.Errorf("sender SPF v6: %s (%v)", out.Result, out.Err)
	}

	// DKIM key and DMARC policy are published.
	txts, err := res.LookupTXT(ctx, "exp._domainkey."+domain)
	if err != nil || len(txts) != 1 || !strings.Contains(txts[0], "FAKEKEY") {
		t.Errorf("DKIM key: %v, %v", txts, err)
	}
	txts, err = res.LookupTXT(ctx, "_dmarc."+domain)
	if err != nil || len(txts) != 1 || !strings.HasPrefix(txts[0], "v=DMARC1; p=reject") {
		t.Errorf("DMARC: %v, %v", txts, err)
	}
}

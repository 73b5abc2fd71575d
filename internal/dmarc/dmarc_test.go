package dmarc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sendervalid/internal/dkim"
	"sendervalid/internal/spf"
)

type mapResolver struct {
	txt     map[string][]string
	failing map[string]bool
	queries []string
}

func (r *mapResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	key := strings.ToLower(strings.TrimSuffix(name, "."))
	r.queries = append(r.queries, key)
	if r.failing[key] {
		return nil, errors.New("SERVFAIL")
	}
	return r.txt[key], nil
}

func TestParseRecord(t *testing.T) {
	rec, err := Parse("v=DMARC1; p=reject; sp=quarantine; adkim=s; aspf=r; pct=50; " +
		"rua=mailto:agg@example.com,mailto:agg2@example.com; ruf=mailto:fail@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy != Reject || rec.SubdomainPolicy != Quarantine {
		t.Errorf("dispositions: %+v", rec)
	}
	if rec.DKIMAlignment != Strict || rec.SPFAlignment != Relaxed {
		t.Errorf("alignment: %+v", rec)
	}
	if rec.Percent != 50 {
		t.Errorf("pct: %d", rec.Percent)
	}
	if len(rec.AggregateURIs) != 2 || len(rec.FailureURIs) != 1 {
		t.Errorf("uris: %+v", rec)
	}
}

func TestParseDefaults(t *testing.T) {
	rec, err := Parse("v=DMARC1; p=none")
	if err != nil {
		t.Fatal(err)
	}
	if rec.DKIMAlignment != Relaxed || rec.SPFAlignment != Relaxed || rec.Percent != 100 {
		t.Errorf("defaults: %+v", rec)
	}
	if rec.PolicyFor(true) != None || rec.PolicyFor(false) != None {
		t.Error("PolicyFor without sp=")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"v=spf1 -all",
		"v=DMARC1",                    // missing p=
		"v=DMARC1; p=destroy",         // bad disposition
		"v=DMARC1; p=none; adkim=x",   // bad alignment
		"v=DMARC1; p=none; pct=150",   // bad pct
		"v=DMARC1; p=none; brokentag", // tag without =
		"p=none; v=DMARC1",            // version not first
	}
	for _, txt := range cases {
		if _, err := Parse(txt); err == nil {
			t.Errorf("Parse(%q) accepted", txt)
		}
	}
}

func TestIsDMARC(t *testing.T) {
	if !IsDMARC("v=DMARC1; p=none") || !IsDMARC("v=DMARC1") {
		t.Error("valid prefixes rejected")
	}
	if IsDMARC("v=DMARC12; p=none") || IsDMARC("v=spf1 -all") {
		t.Error("invalid prefixes accepted")
	}
}

func TestRecordStringRoundTrip(t *testing.T) {
	for _, txt := range []string{
		"v=DMARC1; p=reject",
		"v=DMARC1; p=none; sp=reject; adkim=s; pct=25; rua=mailto:a@b.c",
	} {
		rec, err := Parse(txt)
		if err != nil {
			t.Fatal(err)
		}
		rec2, err := Parse(rec.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", rec.String(), err)
		}
		if rec.String() != rec2.String() {
			t.Errorf("unstable: %q vs %q", rec.String(), rec2.String())
		}
	}
}

func TestOrganizationalDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"example.com", "example.com"},
		{"mail.example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		{"example.co.uk", "example.co.uk"},
		{"mail.example.co.uk", "example.co.uk"},
		{"deep.sub.example.com.au", "example.com.au"},
		{"com", "com"},
		{"co.uk", "co.uk"},
		{"EXAMPLE.COM.", "example.com"},
		{"school.k12.ca.us", "school.k12.ca.us"},
		{"www.school.k12.ca.us", "school.k12.ca.us"},
	}
	for _, c := range cases {
		if got := OrganizationalDomain(c.in); got != c.want {
			t.Errorf("OrganizationalDomain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAligned(t *testing.T) {
	cases := []struct {
		auth, from string
		mode       AlignmentMode
		want       bool
	}{
		{"example.com", "example.com", Strict, true},
		{"mail.example.com", "example.com", Strict, false},
		{"mail.example.com", "example.com", Relaxed, true},
		{"example.com", "news.example.com", Relaxed, true},
		{"example.org", "example.com", Relaxed, false},
		{"example.co.uk", "other.co.uk", Relaxed, false},
		{"", "example.com", Relaxed, false},
		{"Example.COM.", "example.com", Strict, true},
	}
	for _, c := range cases {
		if got := Aligned(c.auth, c.from, c.mode); got != c.want {
			t.Errorf("Aligned(%q, %q, %s) = %v, want %v", c.auth, c.from, c.mode, got, c.want)
		}
	}
}

func TestDiscoverExactDomain(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.sender.example": {"v=DMARC1; p=reject"},
	}}
	e := &Evaluator{Resolver: r}
	rec, fallback, err := e.Discover(context.Background(), "sender.example")
	if err != nil || rec == nil || fallback {
		t.Fatalf("Discover: %+v, %v, %v", rec, fallback, err)
	}
	if rec.Policy != Reject {
		t.Errorf("policy %s", rec.Policy)
	}
}

func TestDiscoverOrgFallback(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.example.com": {"v=DMARC1; p=quarantine; sp=none"},
	}}
	e := &Evaluator{Resolver: r}
	rec, fallback, err := e.Discover(context.Background(), "deep.mail.example.com")
	if err != nil || rec == nil || !fallback {
		t.Fatalf("Discover: %+v, %v, %v", rec, fallback, err)
	}
	// Both names must have been queried, exact first.
	if len(r.queries) != 2 || r.queries[0] != "_dmarc.deep.mail.example.com" ||
		r.queries[1] != "_dmarc.example.com" {
		t.Errorf("queries %v", r.queries)
	}
}

func TestDiscoverNone(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{}}
	e := &Evaluator{Resolver: r}
	rec, _, err := e.Discover(context.Background(), "nopolicy.example.com")
	if err != nil || rec != nil {
		t.Fatalf("Discover: %+v, %v", rec, err)
	}
}

func TestDiscoverIgnoresGarbageAndMultiples(t *testing.T) {
	// Multiple DMARC records mean no policy; non-DMARC TXT is ignored.
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.multi.example": {"v=DMARC1; p=none", "v=DMARC1; p=reject"},
		"_dmarc.noise.example": {"random txt", "v=DMARC1; p=reject"},
	}}
	e := &Evaluator{Resolver: r}
	rec, _, err := e.Discover(context.Background(), "multi.example")
	if err != nil || rec != nil {
		t.Errorf("multiple records: %+v, %v", rec, err)
	}
	rec, _, err = e.Discover(context.Background(), "noise.example")
	if err != nil || rec == nil || rec.Policy != Reject {
		t.Errorf("noise filtering: %+v, %v", rec, err)
	}
}

func TestEvaluatePassViaSPF(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.sender.example": {"v=DMARC1; p=reject"},
	}}
	e := &Evaluator{Resolver: r}
	out := e.Evaluate(context.Background(), Inputs{
		FromDomain: "sender.example",
		SPFResult:  spf.Pass, SPFDomain: "sender.example",
		DKIMResult: dkim.ResultNone,
	})
	if out.Result != ResultPass || !out.SPFAligned || out.DKIMAligned {
		t.Errorf("evaluate: %+v", out)
	}
	if out.Disposition != None {
		t.Errorf("disposition on pass: %s", out.Disposition)
	}
}

func TestEvaluatePassViaDKIM(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.sender.example": {"v=DMARC1; p=reject"},
	}}
	e := &Evaluator{Resolver: r}
	out := e.Evaluate(context.Background(), Inputs{
		FromDomain: "sender.example",
		SPFResult:  spf.Fail, SPFDomain: "sender.example",
		DKIMResult: dkim.ResultPass, DKIMDomain: "mail.sender.example",
	})
	if out.Result != ResultPass || !out.DKIMAligned {
		t.Errorf("evaluate: %+v", out)
	}
}

func TestEvaluateUnalignedPassFails(t *testing.T) {
	// SPF passed but for an unrelated domain: DMARC must fail.
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.victim.example": {"v=DMARC1; p=reject"},
	}}
	e := &Evaluator{Resolver: r}
	out := e.Evaluate(context.Background(), Inputs{
		FromDomain: "victim.example",
		SPFResult:  spf.Pass, SPFDomain: "attacker.example",
		DKIMResult: dkim.ResultNone,
	})
	if out.Result != ResultFail {
		t.Errorf("unaligned: %+v", out)
	}
	if out.Disposition != Reject {
		t.Errorf("disposition: %s", out.Disposition)
	}
}

func TestEvaluateStrictAlignment(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.sender.example": {"v=DMARC1; p=reject; aspf=s"},
	}}
	e := &Evaluator{Resolver: r}
	out := e.Evaluate(context.Background(), Inputs{
		FromDomain: "sender.example",
		SPFResult:  spf.Pass, SPFDomain: "bounce.sender.example",
	})
	if out.Result != ResultFail {
		t.Errorf("strict aspf: %+v", out)
	}
}

func TestEvaluateSubdomainPolicy(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.example.com": {"v=DMARC1; p=reject; sp=quarantine"},
	}}
	e := &Evaluator{Resolver: r}
	out := e.Evaluate(context.Background(), Inputs{
		FromDomain: "sub.example.com",
		SPFResult:  spf.Fail, SPFDomain: "sub.example.com",
		DKIMResult: dkim.ResultFail,
	})
	if out.Result != ResultFail || out.Disposition != Quarantine {
		t.Errorf("subdomain policy: %+v", out)
	}
}

func TestEvaluateNoPolicy(t *testing.T) {
	e := &Evaluator{Resolver: &mapResolver{txt: map[string][]string{}}}
	out := e.Evaluate(context.Background(), Inputs{
		FromDomain: "nopolicy.example",
		SPFResult:  spf.Fail,
	})
	if out.Result != ResultNone || out.Disposition != None {
		t.Errorf("no policy: %+v", out)
	}
}

func TestEvaluateTempError(t *testing.T) {
	r := &mapResolver{
		txt:     map[string][]string{},
		failing: map[string]bool{"_dmarc.broken.example": true},
	}
	e := &Evaluator{Resolver: r}
	out := e.Evaluate(context.Background(), Inputs{FromDomain: "broken.example", SPFResult: spf.Fail})
	if out.Result != ResultTempError {
		t.Errorf("temp error: %+v", out)
	}
}

func TestEvaluateEmptyFrom(t *testing.T) {
	e := &Evaluator{Resolver: &mapResolver{txt: map[string][]string{}}}
	if out := e.Evaluate(context.Background(), Inputs{}); out.Result != ResultPermError {
		t.Errorf("empty From: %+v", out)
	}
}

func TestEvaluatePctSampling(t *testing.T) {
	r := &mapResolver{txt: map[string][]string{
		"_dmarc.victim.example": {"v=DMARC1; p=reject; pct=30"},
	}}
	e := &Evaluator{Resolver: r}
	failing := func() *Evaluation {
		return e.Evaluate(context.Background(), Inputs{
			FromDomain: "victim.example",
			SPFResult:  spf.Fail, SPFDomain: "victim.example",
		})
	}
	// A message counts as sampled in under any pct above 0.
	if out := failing(); out.Disposition != Reject {
		t.Errorf("pct=30: %+v", out)
	}
	// pct=0 samples nothing in: reject weakens to quarantine, and
	// quarantine to none.
	r.txt["_dmarc.victim.example"] = []string{"v=DMARC1; p=reject; pct=0"}
	if out := failing(); out.Disposition != Quarantine {
		t.Errorf("reject at pct=0: %+v", out)
	}
	r.txt["_dmarc.victim.example"] = []string{"v=DMARC1; p=quarantine; pct=0"}
	if out := failing(); out.Disposition != None {
		t.Errorf("quarantine at pct=0: %+v", out)
	}
}

package policy

import (
	"context"
	"net/netip"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/spf"
)

// goldenTypes are the query types every golden name is asked under.
var goldenTypes = []dns.Type{dns.TypeTXT, dns.TypeA, dns.TypeAAAA, dns.TypeMX, dns.TypeSPF}

const (
	goldenMTA    = "m0001"
	goldenNotify = "dsav-mail.dns-lab.example."
	goldenDomain = "d0001"
)

// TestAnswersGolden pins every answer the study's views give, query by
// query, in testdata/answers.golden. The published section covers each
// name a validator can be led to: every name a default spf.Checker or a
// maximal violator queries under each test policy, every target named
// in an answer, _dmarc, t03's HELO name and the NotifyEmail names. The
// unpublished section asks each view for owners it does not publish.
func TestAnswersGolden(t *testing.T) {
	got := goldenAnswers(t)
	want, err := os.ReadFile("testdata/answers.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("answers: %d lines, testdata/answers.golden has %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("%d lines differ in all", bad)
	}
}

// goldenAnswers renders the golden file's content.
func goldenAnswers(t *testing.T) string {
	env := &Env{Suffix: suffix}
	tests := RespondersWithDMARC(env, "contact@dns-lab.example")
	withSender := &NotifyEmailConfig{
		Suffix:        goldenNotify,
		SenderV4:      netip.MustParseAddr("203.0.113.10"),
		SenderV6:      netip.MustParseAddr("2001:db8::10"),
		DKIMSelector:  "exp",
		DKIMKeyRecord: "v=DKIM1; k=rsa; p=FAKEKEY",
		Contact:       "contact@dns-lab.example",
	}
	noSender := *withSender
	noSender.SenderV4, noSender.SenderV6 = netip.Addr{}, netip.Addr{}
	notify := []struct {
		label string
		r     dnsserver.Responder
	}{{"notify-sender", withSender.Responder()}, {"notify-nosender", noSender.Responder()}}

	var b strings.Builder
	b.WriteString("# published\n")
	for _, test := range Catalog() {
		r := tests[test.ID]
		for _, name := range publishedNames(t, test.ID, r) {
			writeAnswers(&b, test.ID, r, testQuery(name))
		}
	}
	for _, n := range notify {
		for _, owner := range []string{"", "l1", "l2", "l3", "mta", "_dmarc", "exp._domainkey"} {
			writeAnswers(&b, n.label, n.r, notifyQuery(owner))
		}
	}
	b.WriteString("# unpublished\n")
	for _, test := range Catalog() {
		r := tests[test.ID]
		for _, owner := range unpublishedOwners(test.ID) {
			writeAnswers(&b, test.ID, r, testQuery(owner+"."+test.ID+"."+goldenMTA+"."+suffix))
		}
	}
	for _, n := range notify {
		for _, owner := range unpublishedOwners("") {
			writeAnswers(&b, n.label, n.r, notifyQuery(owner))
		}
	}
	return b.String()
}

// unpublishedOwners lists, per view, two single-label owners and one
// two-label owner the view does not publish. The second single label
// extends a numbered family one past its end where the view has one.
func unpublishedOwners(id string) []string {
	next := map[string]string{"t02": "n9", "t11": "mx20", "t16": "c11", "t35": "h10", "t39": "r13"}[id]
	if next == "" {
		next = "yy"
	}
	return []string{"zz", next, "x.zz"}
}

// writeAnswers asks r for the query's name under every golden type and
// writes one line per answer.
func writeAnswers(b *strings.Builder, view string, r dnsserver.Responder, q dnsserver.Query) {
	for _, typ := range goldenTypes {
		q := q
		q.Type = typ
		resp := r.Respond(&q)
		b.WriteString(view + " " + q.Name + " " + typ.String() +
			" rcode=" + resp.RCode.String() + " delay=" + resp.Delay.String())
		if resp.TruncateUDP {
			b.WriteString(" tc")
		}
		if resp.RequireIPv6 {
			b.WriteString(" v6only")
		}
		for _, rr := range resp.Records {
			b.WriteString(" | " + strings.ReplaceAll(rr.String(), "\t", " "))
		}
		b.WriteByte('\n')
	}
}

// testQuery attributes a name of the test-policy zone the way the
// server does: <rest>.<testid>.<mtaid>.<suffix>.
func testQuery(name string) dnsserver.Query {
	labels := strings.Split(strings.TrimSuffix(name, "."+suffix), ".")
	n := len(labels)
	q := dnsserver.Query{Name: dns.CanonicalName(name), TestID: labels[n-2], MTAID: labels[n-1]}
	if n > 2 {
		q.Rest = labels[:n-2]
	}
	return q
}

// notifyQuery attributes <owner>.<domainid>.<suffix> in the NotifyEmail
// zone, whose one identifying label is the domain id.
func notifyQuery(owner string) dnsserver.Query {
	q := dnsserver.Query{Name: goldenDomain + "." + goldenNotify, MTAID: goldenDomain}
	if owner != "" {
		q.Name = owner + "." + q.Name
		q.Rest = strings.Split(owner, ".")
	}
	return q
}

// publishedNames lists, sorted, every name of one test policy that a
// validator can be led to: what a default spf.Checker and a maximal
// violator query, every target named in an answer to those names, the
// _dmarc name, and for t03 the HELO name.
func publishedNames(t testing.TB, id string, r dnsserver.Responder) []string {
	base := id + "." + goldenMTA + "." + suffix
	rec := &recordingResolver{r: r, seen: map[string]bool{}}
	maximal := spf.Options{
		LookupLimit: -1, VoidLookupLimit: -1, MXAddressLimit: -1,
		Prefetch: true, IgnoreSyntaxErrors: true, FollowMultipleRecords: true, MXFallbackA: true,
	}
	domain := strings.TrimSuffix(base, ".")
	for _, opts := range []spf.Options{{}, maximal} {
		c := &spf.Checker{Resolver: rec, Options: opts}
		c.CheckHost(context.Background(), probeIP, domain, "spf-test@"+domain, "probe.dns-lab.example")
	}
	rec.add("_dmarc." + base)
	if id == "t03" {
		rec.add("helo." + base)
	}
	// Every target an answer names is published too; follow them to a
	// fixed point.
	for done := map[string]bool{}; ; {
		grew := false
		for _, name := range rec.names() {
			if done[name] {
				continue
			}
			done[name], grew = true, true
			for _, typ := range goldenTypes {
				q := testQuery(name)
				q.Type = typ
				for _, target := range targets(r.Respond(&q).Records) {
					rec.add(target)
				}
			}
		}
		if !grew {
			break
		}
	}
	return rec.names()
}

// targets extracts the in-zone names an answer points at: SPF
// include:/a:/mx:/exists:/ptr: and redirect= targets without macros,
// MX hosts and CNAME targets.
func targets(rrs []dns.RR) []string {
	var out []string
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case *dns.MX:
			out = append(out, d.Host)
		case *dns.CNAME:
			out = append(out, d.Target)
		case *dns.TXT:
			for _, term := range strings.Fields(d.Joined()) {
				term = strings.ToLower(strings.TrimLeft(term, "+-~?"))
				for _, p := range []string{"include:", "a:", "mx:", "exists:", "ptr:", "redirect="} {
					if target, ok := strings.CutPrefix(term, p); ok && !strings.Contains(target, "%") {
						target, _, _ = strings.Cut(target, "/")
						out = append(out, target)
					}
				}
			}
		}
	}
	var in []string
	for _, name := range out {
		if strings.HasSuffix(dns.CanonicalName(name), "."+suffix) {
			in = append(in, dns.CanonicalName(name))
		}
	}
	return in
}

// recordingResolver answers spf lookups straight from a responder and
// records every in-zone name asked for. Shaping is ignored: it answers
// as a resolver that reaches every endpoint over every transport.
type recordingResolver struct {
	r    dnsserver.Responder
	mu   sync.Mutex
	seen map[string]bool
}

func (rr *recordingResolver) add(name string) bool {
	name = dns.CanonicalName(name)
	if !strings.HasSuffix(name, "."+suffix) {
		return false
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.seen[name] = true
	return true
}

func (rr *recordingResolver) names() []string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	out := make([]string, 0, len(rr.seen))
	for n := range rr.seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (rr *recordingResolver) lookup(name string, typ dns.Type) []dns.RR {
	if !rr.add(name) {
		return nil
	}
	q := testQuery(dns.CanonicalName(name))
	q.Type = typ
	var out []dns.RR
	for _, rec := range rr.r.Respond(&q).Records {
		if rec.Type == typ {
			out = append(out, rec)
		}
	}
	return out
}

func (rr *recordingResolver) LookupTXT(_ context.Context, name string) ([]string, error) {
	var out []string
	for _, rec := range rr.lookup(name, dns.TypeTXT) {
		out = append(out, rec.Data.(*dns.TXT).Joined())
	}
	return out, nil
}

func (rr *recordingResolver) LookupA(_ context.Context, name string) ([]netip.Addr, error) {
	var out []netip.Addr
	for _, rec := range rr.lookup(name, dns.TypeA) {
		out = append(out, rec.Data.(*dns.A).Addr)
	}
	return out, nil
}

func (rr *recordingResolver) LookupAAAA(_ context.Context, name string) ([]netip.Addr, error) {
	var out []netip.Addr
	for _, rec := range rr.lookup(name, dns.TypeAAAA) {
		out = append(out, rec.Data.(*dns.AAAA).Addr)
	}
	return out, nil
}

func (rr *recordingResolver) LookupMX(_ context.Context, name string) ([]spf.MXRecord, error) {
	var out []spf.MXRecord
	for _, rec := range rr.lookup(name, dns.TypeMX) {
		mx := rec.Data.(*dns.MX)
		out = append(out, spf.MXRecord{Preference: mx.Preference, Host: mx.Host})
	}
	return out, nil
}

func (rr *recordingResolver) LookupPTR(context.Context, netip.Addr) ([]string, error) {
	return nil, nil
}

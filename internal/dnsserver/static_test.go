package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

func TestStaticRespond(t *testing.T) {
	s := NewStatic().
		SPF("sender.example", "v=spf1 ip4:192.0.2.1 -all").
		A("mail.sender.example", netip.MustParseAddr("192.0.2.1")).
		AAAA("mail.sender.example", netip.MustParseAddr("2001:db8::1")).
		MX("sender.example", 10, "mail.sender.example.").
		DKIMKey("s1", "sender.example", "v=DKIM1; k=rsa; p=KEY").
		DMARC("sender.example", "v=DMARC1; p=reject").
		Add(dns.RR{Name: "alias.sender.example", Type: dns.TypeCNAME, Data: &dns.CNAME{Target: "mail.sender.example."}})

	cases := []struct {
		name  string
		typ   dns.Type
		rcode dns.RCode
		count int
	}{
		{"sender.example.", dns.TypeTXT, dns.RCodeSuccess, 1},
		{"sender.example.", dns.TypeMX, dns.RCodeSuccess, 1},
		{"mail.sender.example.", dns.TypeA, dns.RCodeSuccess, 1},
		{"mail.sender.example.", dns.TypeAAAA, dns.RCodeSuccess, 1},
		{"s1._domainkey.sender.example.", dns.TypeTXT, dns.RCodeSuccess, 1},
		{"_dmarc.sender.example.", dns.TypeTXT, dns.RCodeSuccess, 1},
		{"alias.sender.example.", dns.TypeA, dns.RCodeSuccess, 2}, // CNAME + target A
		{"sender.example.", dns.TypeAAAA, dns.RCodeSuccess, 0},    // name exists, type absent
		{"missing.sender.example.", dns.TypeA, dns.RCodeNameError, 0},
	}
	for _, c := range cases {
		resp := s.Respond(&Query{Name: c.name, Type: c.typ})
		if resp.RCode != c.rcode || len(resp.Records) != c.count {
			t.Errorf("%s %s: rcode=%s records=%d, want %s/%d",
				c.name, c.typ, resp.RCode, len(resp.Records), c.rcode, c.count)
		}
	}
}

func TestStaticServesFullSPFEvaluation(t *testing.T) {
	// A static zone must support a complete SPF evaluation through the
	// real resolver stack.
	static := NewStatic().
		SPF("corp.example", "v=spf1 mx include:_spf.corp.example -all").
		MX("corp.example", 10, "mx1.corp.example.").
		A("mx1.corp.example", netip.MustParseAddr("203.0.113.5")).
		SPF("_spf.corp.example", "v=spf1 ip4:198.51.100.0/24 ?all")

	srv := &Server{
		Zones: []*Zone{{Suffix: "corp.example.", LabelDepth: 1, Default: static}},
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
	checker := &spf.Checker{Resolver: res, Options: spf.Options{Timeout: 10 * time.Second}}
	ctx := context.Background()

	// The MX host's address passes.
	out := checker.CheckHost(ctx, netip.MustParseAddr("203.0.113.5"),
		"corp.example", "a@corp.example", "mx1.corp.example")
	if out.Result != spf.Pass {
		t.Errorf("mx match: %s (%v)", out.Result, out.Err)
	}
	// An address inside the included range passes.
	out = checker.CheckHost(ctx, netip.MustParseAddr("198.51.100.77"),
		"corp.example", "a@corp.example", "x")
	if out.Result != spf.Pass {
		t.Errorf("include match: %s (%v)", out.Result, out.Err)
	}
	// Everything else fails.
	out = checker.CheckHost(ctx, netip.MustParseAddr("192.0.2.200"),
		"corp.example", "a@corp.example", "x")
	if out.Result != spf.Fail {
		t.Errorf("non-match: %s (%v)", out.Result, out.Err)
	}
}

func TestStaticDefaults(t *testing.T) {
	s := NewStatic().Add(dns.RR{Name: "X.Example", Type: dns.TypeTXT, Data: &dns.TXT{Strings: []string{"v"}}})
	resp := s.Respond(&Query{Name: "x.example.", Type: dns.TypeTXT})
	if len(resp.Records) != 1 {
		t.Fatal("case-insensitive name lookup failed")
	}
	rr := resp.Records[0]
	if rr.Class != dns.ClassINET || rr.TTL != 300 {
		t.Errorf("defaults not applied: %+v", rr)
	}
}

func TestQueryLogJSONRoundTrip(t *testing.T) {
	log := &QueryLog{}
	log.Append(LogEntry{
		Time: time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC),
		Name: "t01.m0001.spf-test.example.", Type: dns.TypeTXT,
		TestID: "t01", MTAID: "m0001", Transport: "udp", Remote: "127.0.0.1:4242",
	})
	log.Append(LogEntry{
		Time: time.Date(2021, 4, 1, 12, 0, 1, 0, time.UTC),
		Name: "l1.t01.m0001.spf-test.example.", Type: dns.TypeAAAA,
		TestID: "t01", MTAID: "m0001", Rest: []string{"l1"},
		Transport: "tcp", OverIPv6: true,
	})
	log.Append(LogEntry{Name: "x.", Type: dns.Type(251)})

	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadLogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries", len(entries))
	}
	orig := log.Entries()
	for i := range orig {
		a, b := orig[i], entries[i]
		if !a.Time.Equal(b.Time) || a.Name != b.Name || a.Type != b.Type ||
			a.TestID != b.TestID || a.MTAID != b.MTAID ||
			a.Transport != b.Transport || a.OverIPv6 != b.OverIPv6 ||
			a.Remote != b.Remote || len(a.Rest) != len(b.Rest) {
			t.Errorf("entry %d mismatch:\n %+v\n %+v", i, a, b)
		}
	}
	// Unknown types round-trip through the TYPEn form.
	if entries[2].Type != dns.Type(251) {
		t.Errorf("raw type: %v", entries[2].Type)
	}
	// Garbage input errors cleanly.
	if _, err := ReadLogJSON(strings.NewReader("{broken")); err == nil {
		t.Error("garbage log accepted")
	}
	if _, err := ReadLogJSON(strings.NewReader(`{"type":"NOTATYPE","name":"x."}`)); err == nil {
		t.Error("unknown type name accepted")
	}
}

func TestForEachLogJSONStreams(t *testing.T) {
	log := &QueryLog{}
	for i := 0; i < 5; i++ {
		log.Append(LogEntry{
			Name: "t01.m0001.spf-test.example.", Type: dns.TypeTXT,
			TestID: "t01", MTAID: fmt.Sprintf("m%04d", i),
		})
	}
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()

	// Entries arrive one at a time, in file order.
	var ids []string
	err := ForEachLogJSON(strings.NewReader(raw), func(e LogEntry) error {
		ids = append(ids, e.MTAID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || ids[0] != "m0000" || ids[4] != "m0004" {
		t.Errorf("streamed ids: %v", ids)
	}

	// A callback error stops the scan and surfaces unwrapped.
	sentinel := errors.New("stop here")
	n := 0
	err = ForEachLogJSON(strings.NewReader(raw), func(LogEntry) error {
		n++
		if n == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("callback error not returned: %v", err)
	}
	if n != 2 {
		t.Errorf("scan continued past callback error: %d calls", n)
	}

	// Malformed input errors with the 1-based file line.
	err = ForEachLogJSON(strings.NewReader(raw+"{broken"), func(LogEntry) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 6:") {
		t.Errorf("malformed tail: %v", err)
	}
}

func TestRootZoneNegativeAnswer(t *testing.T) {
	// A catch-all root zone must produce well-formed negative answers
	// (its synthesized SOA once built the invalid name "ns1..").
	static := NewStatic().A("host.any-tld.example", netip.MustParseAddr("192.0.2.5"))
	srv := &Server{Zones: []*Zone{{Suffix: ".", LabelDepth: 1, Default: static}}}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	res := resolver.New(resolver.Config{Server: addr.String(), Timeout: 2 * time.Second})
	ctx := context.Background()
	start := time.Now()
	// Name exists, type absent: NOERROR/empty must arrive promptly.
	aaaa, err := res.LookupAAAA(ctx, "host.any-tld.example")
	if err != nil || len(aaaa) != 0 {
		t.Errorf("AAAA: %v, %v", aaaa, err)
	}
	// Unknown name: NXDOMAIN must also arrive promptly.
	if _, err := res.LookupA(ctx, "missing.example"); err != nil {
		t.Errorf("NXDOMAIN: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("negative answers took %v (timeout path?)", elapsed)
	}
}

func TestZoneAttributionRoundTrip(t *testing.T) {
	// Property: for any (testid, mtaid, extra-labels) triple, the name
	// Rejoin builds parses back to the same attribution.
	zone := &Zone{Suffix: "spf-test.dns-lab.example."}
	labels := []string{"l1", "foo", "mx07", "v3", "_dmarc"}
	for _, test := range []string{"t01", "t39", "x"} {
		for _, mta := range []string{"m000001", "d42"} {
			for n := 0; n <= 2; n++ {
				q := &Query{TestID: test, MTAID: mta}
				name := Rejoin(q, zone.Suffix, labels[:n]...)
				parsed, ok := zone.parse(name, dns.TypeTXT, "udp")
				if !ok {
					t.Fatalf("name %q not in zone", name)
				}
				if parsed.TestID != test || parsed.MTAID != mta || len(parsed.Rest) != n {
					t.Fatalf("attribution round trip: %q -> %+v", name, parsed)
				}
				for i := 0; i < n; i++ {
					if parsed.Rest[i] != labels[i] {
						t.Fatalf("rest mismatch: %q -> %v", name, parsed.Rest)
					}
				}
			}
		}
	}
}

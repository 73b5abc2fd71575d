package dnsserver

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/netsim"
	"sendervalid/internal/telemetry"
)

// TestPolicyFamilyBoundedByZones serves one policy and queries it, the
// apex, a name in a depth-1 zone and 200 distinct test labels no zone
// serves. The per-policy family holds exactly the served label, none
// and _overflow: a label off the wire mints no series, _overflow
// counts every unserved one, and the family sums to the queries the
// server attributed.
func TestPolicyFamilyBoundedByZones(t *testing.T) {
	const junk = 200
	answer := ResponderFunc(func(q *Query) Response {
		return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 -all", 60)}}
	})
	log := &QueryLog{}
	srv := &Server{Zones: []*Zone{
		{Suffix: testSuffix, Responders: map[string]Responder{"t01": answer}},
		{Suffix: "dsav-mail.dns-lab.example.", LabelDepth: 1, Responders: map[string]Responder{"d0007": answer}},
	}, Log: log}
	fabric := netsim.NewFabric()
	addr := netip.MustParseAddrPort("192.0.2.53:53")
	if err := srv.Serve(fabric, addr); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	names := []string{"t01.m0001." + testSuffix, testSuffix, "d0007.dsav-mail.dns-lab.example."}
	for i := range junk {
		names = append(names, fmt.Sprintf("x%03d.m0001.%s", i, testSuffix))
	}
	c := &dns.Client{Timeout: 2 * time.Second, Dialer: fabric.BoundDialer(
		netip.MustParseAddr("203.0.113.25"), netip.MustParseAddr("2001:db8:25::25"))}
	for _, name := range names {
		q := new(dns.Message).SetQuestion(name, dns.TypeTXT)
		if _, err := c.ExchangeOver(context.Background(), q, "udp", addr.String()); err != nil {
			t.Fatalf("query %s: %v", name, err)
		}
	}

	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	var sum uint64
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `dnsserver_queries_total{policy="`)
		if !ok {
			continue
		}
		policy, value, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		got[policy] = n
		sum += n
	}
	want := map[string]uint64{"t01": 1, "none": 2, "_overflow": junk}
	if len(got) != len(want) {
		t.Errorf("per-policy series %v, want exactly %v", got, want)
	}
	for policy, n := range want {
		if got[policy] != n {
			t.Errorf("policy %q = %d, want %d", policy, got[policy], n)
		}
	}
	if attributed := uint64(len(log.Entries())); sum != attributed {
		t.Errorf("family sums to %d, server attributed %d queries", sum, attributed)
	}
}

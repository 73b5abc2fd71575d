package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
)

const testSuffix = "spf-test.dns-lab.example."

// ResponderFunc adapts a function to the Responder interface, for
// tests that shape one policy inline.
type ResponderFunc func(q *Query) Response

func (f ResponderFunc) Respond(q *Query) Response { return f(q) }

// synthResponder mimics the paper's include-chain synthesis: the base
// TXT query gets a policy including l1.<base>; l1 includes l2; l2
// terminates.
func synthResponder(t *testing.T) Responder {
	return ResponderFunc(func(q *Query) Response {
		if q.Type != dns.TypeTXT {
			return Response{}
		}
		switch {
		case len(q.Rest) == 0:
			return Response{Records: []dns.RR{
				TXTRecord(q.Name, "v=spf1 include:"+Rejoin(q, testSuffix, "l1")+" ?all", 60),
			}}
		case q.Rest[0] == "l1":
			return Response{Records: []dns.RR{
				TXTRecord(q.Name, "v=spf1 include:"+Rejoin(q, testSuffix, "l2")+" ?all", 60),
			}}
		case q.Rest[0] == "l2":
			return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 ?all", 60)}}
		}
		return Response{RCode: dns.RCodeNameError}
	})
}

func startSynthServer(t *testing.T, zone *Zone) (*Server, string) {
	t.Helper()
	srv := &Server{Zones: []*Zone{zone}, Log: &QueryLog{}}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, addr.String()
}

func queryTXT(t *testing.T, addr, name string) *dns.Message {
	t.Helper()
	c := &dns.Client{Timeout: 3 * time.Second}
	resp, err := c.Query(context.Background(), addr, name, dns.TypeTXT)
	if err != nil {
		t.Fatalf("query %s: %v", name, err)
	}
	return resp
}

func txtPayload(t *testing.T, m *dns.Message) string {
	t.Helper()
	if len(m.Answers) == 0 {
		t.Fatalf("no answers in %s", m)
	}
	return m.Answers[0].Data.(*dns.TXT).Joined()
}

func TestSynthesizedIncludeChain(t *testing.T) {
	zone := &Zone{
		Suffix:     testSuffix,
		Responders: map[string]Responder{"t01": synthResponder(t)},
	}
	srv, addr := startSynthServer(t, zone)

	base := "t01.m0042." + testSuffix
	payload := txtPayload(t, queryTXT(t, addr, base))
	if payload != "v=spf1 include:l1.t01.m0042."+testSuffix+" ?all" {
		t.Errorf("base policy: %q", payload)
	}
	payload = txtPayload(t, queryTXT(t, addr, "l1."+base))
	if !strings.Contains(payload, "include:l2.t01.m0042.") {
		t.Errorf("l1 policy: %q", payload)
	}
	payload = txtPayload(t, queryTXT(t, addr, "l2."+base))
	if payload != "v=spf1 ?all" {
		t.Errorf("l2 policy: %q", payload)
	}

	// Identity isolation: a different MTA id gets its own names.
	payload = txtPayload(t, queryTXT(t, addr, "t01.m9999."+testSuffix))
	if !strings.Contains(payload, "l1.t01.m9999.") {
		t.Errorf("per-MTA synthesis: %q", payload)
	}

	// The log attributes every query.
	entries := srv.Log.(*QueryLog).Entries()
	if len(entries) != 4 {
		t.Fatalf("logged %d queries, want 4", len(entries))
	}
	if entries[0].TestID != "t01" || entries[0].MTAID != "m0042" || len(entries[0].Rest) != 0 {
		t.Errorf("base attribution: %+v", entries[0])
	}
	if entries[1].Rest[0] != "l1" || entries[2].Rest[0] != "l2" {
		t.Errorf("follow-up attribution: %+v %+v", entries[1], entries[2])
	}
	if entries[3].MTAID != "m9999" {
		t.Errorf("MTA attribution: %+v", entries[3])
	}
}

func TestResponseDelayShaping(t *testing.T) {
	delay := 80 * time.Millisecond
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t02": ResponderFunc(func(q *Query) Response {
				return Response{
					Records: []dns.RR{TXTRecord(q.Name, "v=spf1 ?all", 60)},
					Delay:   delay,
				}
			}),
		},
	}
	_, addr := startSynthServer(t, zone)
	c := &dns.Client{Timeout: 3 * time.Second}
	for _, network := range []string{"udp", "tcp"} {
		start := time.Now()
		resp, err := c.ExchangeOver(context.Background(),
			new(dns.Message).SetQuestion("t02.m0001."+testSuffix, dns.TypeTXT), network, addr)
		if err != nil {
			t.Fatalf("%s query: %v", network, err)
		}
		if elapsed := time.Since(start); elapsed < delay {
			t.Errorf("%s response arrived after %v, want ≥ %v", network, elapsed, delay)
		}
		if len(resp.Answers) != 1 {
			t.Errorf("%s delayed response: %s", network, resp)
		}
	}
}

// sendQuery writes a TXT query for name on a raw client socket, so a
// test controls which socket, and in which order, queries leave.
func sendQuery(t *testing.T, conn net.Conn, name string) {
	t.Helper()
	packed, err := new(dns.Message).SetQuestion(name, dns.TypeTXT).AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(packed); err != nil {
		t.Fatal(err)
	}
}

// readReply decodes the next datagram on a raw client socket.
func readReply(t *testing.T, conn net.Conn) *dns.Message {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dns.Message
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestShapedDelayNoHeadOfLineBlocking queues more delayed queries than
// the endpoint has UDP readers (2×GOMAXPROCS+1), then one undelayed
// query behind them, which must still be answered at once. A reader
// that slept out the delay would hold it for a full 300 ms.
func TestShapedDelayNoHeadOfLineBlocking(t *testing.T) {
	const delay = 300 * time.Millisecond
	txt := func(q *Query) []dns.RR { return []dns.RR{TXTRecord(q.Name, "v=spf1 ?all", 60)} }
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t01": ResponderFunc(func(q *Query) Response { return Response{Records: txt(q)} }),
			"t02": ResponderFunc(func(q *Query) Response { return Response{Records: txt(q), Delay: delay} }),
		},
	}
	_, addr := startSynthServer(t, zone)
	held := make([]net.Conn, 2*runtime.GOMAXPROCS(0)+1)
	start := time.Now()
	for i := range held {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sendQuery(t, conn, fmt.Sprintf("t02.m%04d.%s", i, testSuffix))
		held[i] = conn
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	asked := time.Now()
	sendQuery(t, conn, "t01.m9999."+testSuffix)
	if resp := readReply(t, conn); len(resp.Answers) != 1 {
		t.Errorf("undelayed answer: %s", resp)
	}
	if waited := time.Since(asked); waited >= 50*time.Millisecond {
		t.Errorf("undelayed query answered after %v behind %d delayed ones, want < 50ms", waited, len(held))
	}
	for _, c := range held {
		if resp := readReply(t, c); len(resp.Answers) != 1 {
			t.Errorf("delayed answer: %s", resp)
		}
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("delayed answers all arrived after %v, want ≥ %v", elapsed, delay)
	}
}

// TestLogRemoteRendersLikeUDPAddr pins the query log's Remote field to
// what net.UDPAddr.String() renders for the client's socket: over IPv4,
// over IPv6, and for an IPv4 client of a dual-stack socket, which the
// kernel reports v4-mapped.
func TestLogRemoteRendersLikeUDPAddr(t *testing.T) {
	for _, tc := range []struct {
		name, listen, network, host string
	}{
		{"v4", "127.0.0.1:0", "udp4", "127.0.0.1"},
		{"v6", "[::1]:0", "udp6", "::1"},
		{"v4-mapped", "[::]:0", "udp4", "127.0.0.1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &Server{Zones: []*Zone{{Suffix: testSuffix}}, Addr4: tc.listen, Log: &QueryLog{}}
			bound, err := srv.Start()
			if err != nil {
				if tc.name == "v4" {
					t.Fatal(err)
				}
				t.Skipf("IPv6 unavailable: %v", err)
			}
			t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
			port := strconv.Itoa(bound.(*net.UDPAddr).Port)
			conn, err := net.Dial(tc.network, net.JoinHostPort(tc.host, port))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			sendQuery(t, conn, "t01.m0001."+testSuffix)
			readReply(t, conn)
			entries := srv.Log.(*QueryLog).Entries()
			if len(entries) != 1 {
				t.Fatalf("logged %d queries, want 1", len(entries))
			}
			if got, want := entries[0].Remote, conn.LocalAddr().String(); got != want {
				t.Errorf("logged Remote %q, want %q", got, want)
			}
		})
	}
}

func TestTruncateUDPForcesTCP(t *testing.T) {
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t03": ResponderFunc(func(q *Query) Response {
				return Response{
					Records:     []dns.RR{TXTRecord(q.Name, "v=spf1 -all", 60)},
					TruncateUDP: true,
				}
			}),
		},
	}
	srv, addr := startSynthServer(t, zone)
	resp := queryTXT(t, addr, "t03.m0001."+testSuffix) // client auto-retries TCP
	if resp.Truncated || len(resp.Answers) != 1 {
		t.Errorf("TCP retry failed: %s", resp)
	}
	transports := []string{}
	for _, e := range srv.Log.(*QueryLog).Entries() {
		transports = append(transports, e.Transport)
	}
	if len(transports) != 2 || transports[0] != "udp" || transports[1] != "tcp" {
		t.Errorf("observed transports %v, want [udp tcp]", transports)
	}
}

func TestRequireIPv6(t *testing.T) {
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t04": ResponderFunc(func(q *Query) Response {
				return Response{
					Records:     []dns.RR{TXTRecord(q.Name, "v=spf1 ?all", 60)},
					RequireIPv6: true,
				}
			}),
		},
	}
	srv := &Server{Zones: []*Zone{zone}, Addr6: "[::1]:0", Log: &QueryLog{}}
	addr4, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	if srv.Addr6Bound() == nil {
		t.Skip("IPv6 loopback unavailable")
	}

	c := &dns.Client{Timeout: 3 * time.Second}
	name := "t04.m0001." + testSuffix
	over4, err := c.Query(context.Background(), addr4.String(), name, dns.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if over4.RCode != dns.RCodeRefused {
		t.Errorf("IPv4 query to v6-only policy: %s", over4.RCode)
	}
	over6, err := c.Query(context.Background(), srv.Addr6Bound().String(), name, dns.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if over6.RCode != dns.RCodeSuccess || len(over6.Answers) != 1 {
		t.Errorf("IPv6 query failed: %s", over6)
	}
}

func TestApexSOAAndContact(t *testing.T) {
	zone := &Zone{Suffix: testSuffix, Contact: FormatContact("research-contact@dns-lab.example")}
	_, addr := startSynthServer(t, zone)
	c := &dns.Client{Timeout: 3 * time.Second}
	resp, err := c.Query(context.Background(), addr, testSuffix, dns.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("no SOA answer: %s", resp)
	}
	soa := resp.Answers[0].Data.(*dns.SOA)
	if soa.RName != "research-contact.dns-lab.example." {
		t.Errorf("SOA contact: %q", soa.RName)
	}
}

func TestUnknownZoneRefused(t *testing.T) {
	zone := &Zone{Suffix: testSuffix}
	_, addr := startSynthServer(t, zone)
	c := &dns.Client{Timeout: 3 * time.Second}
	resp, err := c.Query(context.Background(), addr, "unrelated.example.org", dns.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dns.RCodeRefused {
		t.Errorf("off-zone query: %s", resp.RCode)
	}
}

func TestNoResponderNXDOMAIN(t *testing.T) {
	zone := &Zone{Suffix: testSuffix, Responders: map[string]Responder{}}
	_, addr := startSynthServer(t, zone)
	resp := queryTXT(t, addr, "t99.m0001."+testSuffix)
	if resp.RCode != dns.RCodeNameError {
		t.Errorf("unknown test id: %s", resp.RCode)
	}
	if len(resp.Authority) == 0 {
		t.Error("negative answer lacks SOA")
	}
}

// TestNegativeAnswersCarrySOA pins the three negative shapes to one
// SOA in the authority section (RFC 2308 §3), whose lifetime a
// resolver reads: a name no responder serves, a responder's NXDOMAIN
// (a Static miss) and a responder's NODATA (a Static name without the
// type). A truncated answer carries none.
func TestNegativeAnswersCarrySOA(t *testing.T) {
	static := NewStatic().TXT("known.t01.m0001."+testSuffix, "v=spf1 -all")
	zone := &Zone{Suffix: testSuffix, Responders: map[string]Responder{
		"t01": static,
		"t09": ResponderFunc(func(q *Query) Response { return Response{TruncateUDP: true} }),
	}}
	_, addr := startSynthServer(t, zone)
	c := &dns.Client{Timeout: 3 * time.Second, DisableTCPFallback: true}
	for _, tc := range []struct {
		name  string
		typ   dns.Type
		rcode dns.RCode
		soa   bool
	}{
		{"t99.m0001." + testSuffix, dns.TypeTXT, dns.RCodeNameError, true},
		{"missing.t01.m0001." + testSuffix, dns.TypeTXT, dns.RCodeNameError, true},
		{"known.t01.m0001." + testSuffix, dns.TypeA, dns.RCodeSuccess, true},
		{"t09.m0001." + testSuffix, dns.TypeTXT, dns.RCodeSuccess, false},
	} {
		resp, err := c.Query(context.Background(), addr, tc.name, tc.typ)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.name, tc.typ, err)
		}
		if resp.RCode != tc.rcode || len(resp.Answers) != 0 {
			t.Errorf("%s %s: %s with %d answers, want %s and none", tc.name, tc.typ, resp.RCode, len(resp.Answers), tc.rcode)
		}
		if !tc.soa {
			if len(resp.Authority) != 0 {
				t.Errorf("%s %s: authority %v, want none", tc.name, tc.typ, resp.Authority)
			}
			continue
		}
		if len(resp.Authority) != 1 || resp.Authority[0].Type != dns.TypeSOA {
			t.Fatalf("%s %s: authority %v, want one SOA", tc.name, tc.typ, resp.Authority)
		}
		if soa := resp.Authority[0].Data.(*dns.SOA); resp.Authority[0].TTL != soaTTL || soa.Minimum != 300 {
			t.Errorf("%s %s: SOA TTL %d MINIMUM %d", tc.name, tc.typ, resp.Authority[0].TTL, soa.Minimum)
		}
	}
}

func TestSingleLabelZone(t *testing.T) {
	// NotifyEmail-style zone: <domainid>.<suffix>, depth 1.
	zone := &Zone{
		Suffix:     "dsav-mail.dns-lab.example.",
		LabelDepth: 1,
		Default: ResponderFunc(func(q *Query) Response {
			if q.Type != dns.TypeTXT {
				return Response{}
			}
			return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 a:mta."+q.MTAID+".dsav-mail.dns-lab.example. -all", 60)}}
		}),
	}
	srv, addr := startSynthServer(t, zone)
	payload := txtPayload(t, queryTXT(t, addr, "d0007.dsav-mail.dns-lab.example."))
	if !strings.Contains(payload, "a:mta.d0007.") {
		t.Errorf("single-label synthesis: %q", payload)
	}
	e := srv.Log.(*QueryLog).Entries()[0]
	if e.MTAID != "d0007" || e.TestID != "" {
		t.Errorf("single-label attribution: %+v", e)
	}
}

func TestSingleLabelZoneResponderKeying(t *testing.T) {
	// Regression: single-identifier zones key responders on the first
	// rest label when present, otherwise the domain id itself — queries
	// like mta.<domainid>.<suffix> must reach Responders["mta"], and
	// <domainid>.<suffix> must reach Responders["<domainid>"]. (They
	// previously always fell through to Default because the lookup was
	// keyed on the TestID field, which depth-1 parsing leaves empty.)
	suffix := "dsav-mail.dns-lab.example."
	tag := func(label string) Responder {
		return ResponderFunc(func(q *Query) Response {
			return Response{Records: []dns.RR{TXTRecord(q.Name, "resp="+label, 60)}}
		})
	}
	zone := &Zone{
		Suffix:     suffix,
		LabelDepth: 1,
		Responders: map[string]Responder{
			"mta":   tag("mta"),
			"d9999": tag("d9999"),
		},
		Default: tag("default"),
	}
	_, addr := startSynthServer(t, zone)

	for _, tc := range []struct{ name, want string }{
		{"mta.d0007." + suffix, "resp=mta"},       // first rest label
		{"d9999." + suffix, "resp=d9999"},         // domain id itself
		{"d0007." + suffix, "resp=default"},       // no dedicated responder
		{"other.d0007." + suffix, "resp=default"}, // unknown rest label
		// Leftmost rest label is the key, so an extra label shadows a
		// keyed one further right.
		{"deep.mta.d0007." + suffix, "resp=default"},
	} {
		got := txtPayload(t, queryTXT(t, addr, tc.name))
		if got != tc.want {
			t.Errorf("%s routed to %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestVoidResponder(t *testing.T) {
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t05": ResponderFunc(func(q *Query) Response {
				if q.Type == dns.TypeA {
					return Response{} // NOERROR, no records: a void lookup
				}
				return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 a:void."+q.TestID+"."+q.MTAID+"."+testSuffix+" ?all", 60)}}
			}),
		},
	}
	_, addr := startSynthServer(t, zone)
	c := &dns.Client{Timeout: 3 * time.Second}
	resp, err := c.Query(context.Background(), addr, "void.t05.m0001."+testSuffix, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dns.RCodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("void answer: %s", resp)
	}
}

func TestQueryLogHelpers(t *testing.T) {
	log := &QueryLog{}
	log.Append(LogEntry{TestID: "t01", MTAID: "m1", Name: "a."})
	log.Append(LogEntry{TestID: "t01", MTAID: "m2", Name: "b."})
	log.Append(LogEntry{TestID: "t02", MTAID: "m1", Name: "c."})
	if log.Len() != 3 {
		t.Errorf("Len = %d", log.Len())
	}
	if got := log.Entries(); len(got) != 3 || got[0].Name != "a." || got[2].Name != "c." {
		t.Errorf("Entries = %v", got)
	}
	var names []string
	log.View(func(entries []LogEntry) {
		for _, e := range entries {
			names = append(names, e.Name)
		}
	})
	if len(names) != 3 || names[0] != "a." || names[2] != "c." {
		t.Errorf("View saw %v", names)
	}
}

func TestRejoin(t *testing.T) {
	q := &Query{TestID: "t01", MTAID: "m0042"}
	if got := Rejoin(q, testSuffix, "l1"); got != "l1.t01.m0042."+testSuffix {
		t.Errorf("Rejoin = %q", got)
	}
	if got := Rejoin(q, testSuffix); got != "t01.m0042."+testSuffix {
		t.Errorf("Rejoin no-extra = %q", got)
	}
	if got := Rejoin(&Query{}, testSuffix); got != testSuffix {
		t.Errorf("Rejoin empty = %q", got)
	}
}

func TestFormatContact(t *testing.T) {
	if got := FormatContact("hostmaster@example.com"); got != "hostmaster.example.com." {
		t.Errorf("FormatContact = %q", got)
	}
	if got := FormatContact("first.last@example.com"); got != "first\\.last.example.com." {
		t.Errorf("FormatContact dotted local = %q", got)
	}
	if got := FormatContact("already.a.name."); got != "already.a.name." {
		t.Errorf("FormatContact passthrough = %q", got)
	}
}

func TestMultipleTXTRecords(t *testing.T) {
	// The paper's multiple-SPF-record test policy publishes two valid
	// policies at one name.
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t07": ResponderFunc(func(q *Query) Response {
				return Response{Records: []dns.RR{
					TXTRecord(q.Name, "v=spf1 a:one."+testSuffix+" ?all", 60),
					TXTRecord(q.Name, "v=spf1 a:two."+testSuffix+" ?all", 60),
				}}
			}),
		},
	}
	_, addr := startSynthServer(t, zone)
	resp := queryTXT(t, addr, "t07.m0001."+testSuffix)
	if len(resp.Answers) != 2 {
		t.Errorf("got %d TXT records, want 2", len(resp.Answers))
	}
}

func TestARecordSynthesis(t *testing.T) {
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t08": ResponderFunc(func(q *Query) Response {
				if q.Type == dns.TypeA {
					return Response{Records: []dns.RR{{
						Name: q.Name, Type: dns.TypeA, Class: dns.ClassINET, TTL: 60,
						Data: &dns.A{Addr: netip.MustParseAddr("192.0.2.1")},
					}}}
				}
				return Response{}
			}),
		},
	}
	_, addr := startSynthServer(t, zone)
	c := &dns.Client{Timeout: 3 * time.Second}
	resp, err := c.Query(context.Background(), addr, "foo.t08.m0001."+testSuffix, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(*dns.A).Addr.String() != "192.0.2.1" {
		t.Errorf("A synthesis: %s", resp)
	}
}

// TestServeFabric serves one server at a fabric's IPv6 and IPv4
// addresses, IPv6 first: each answers over UDP and TCP, and a query is
// logged OverIPv6 by the family of the address it reached, not by the
// argument's position. Shutdown leaves nothing running.
func TestServeFabric(t *testing.T) {
	defer leaktest.Check(t)()
	fabric := netsim.NewFabric()
	addr4 := netip.MustParseAddrPort("192.0.2.53:53")
	addr6 := netip.MustParseAddrPort("[2001:db8:53::53]:53")
	log := &QueryLog{}
	srv := &Server{Zones: []*Zone{{Suffix: testSuffix, Default: ResponderFunc(func(q *Query) Response {
		return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 -all", 60)}}
	})}}, Log: log}
	if err := srv.Serve(fabric, addr6, addr4); err != nil {
		t.Fatal(err)
	}
	if got := srv.Addr6Bound(); got == nil || got.String() != addr6.String() {
		t.Errorf("Addr6Bound = %v, want %s", got, addr6)
	}
	c := &dns.Client{Timeout: 2 * time.Second, Dialer: fabric.BoundDialer(
		netip.MustParseAddr("203.0.113.25"), netip.MustParseAddr("2001:db8:25::25"))}
	for _, addr := range []netip.AddrPort{addr4, addr6} {
		for _, network := range []string{"udp", "tcp"} {
			q := new(dns.Message).SetQuestion("t01.m0001."+testSuffix, dns.TypeTXT)
			resp, err := c.ExchangeOver(context.Background(), q, network, addr.String())
			if err != nil {
				t.Fatalf("%s query to %s: %v", network, addr, err)
			}
			if len(resp.Answers) != 1 {
				t.Errorf("%s query to %s: %d answers, want 1", network, addr, len(resp.Answers))
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var got []string
	for _, e := range log.Entries() {
		got = append(got, fmt.Sprintf("%s v6=%t", e.Transport, e.OverIPv6))
	}
	want := []string{"udp v6=false", "tcp v6=false", "udp v6=true", "tcp v6=true"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("logged %v, want %v", got, want)
	}
}

// TestServeFabricErrorLeavesNothingServing makes Serve fail at its
// second address, whose stream side is taken after its datagram
// endpoint already serves. Nothing may be left serving: both datagram
// addresses are free again, and no reader goroutine remains.
func TestServeFabricErrorLeavesNothingServing(t *testing.T) {
	defer leaktest.Check(t)()
	fabric := netsim.NewFabric()
	addr4 := netip.MustParseAddrPort("192.0.2.53:53")
	addr6 := netip.MustParseAddrPort("[2001:db8:53::53]:53")
	taken, err := fabric.Handle(addr6, func(c net.Conn) { c.Close() })
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	srv := &Server{Zones: []*Zone{{Suffix: testSuffix}}}
	if err := srv.Serve(fabric, addr4, addr6); !errors.Is(err, netsim.ErrAddrInUse) {
		t.Fatalf("Serve with a taken stream address = %v, want ErrAddrInUse", err)
	}
	for _, addr := range []netip.AddrPort{addr4, addr6} {
		pc, err := fabric.ListenPacket(addr)
		if err != nil {
			t.Fatalf("%s still bound after a failed Serve: %v", addr, err)
		}
		pc.Close()
	}
	if _, err := fabric.DialContext(context.Background(), "tcp", addr4.String()); err == nil {
		t.Errorf("%s still takes stream dials after a failed Serve", addr4)
	}
}

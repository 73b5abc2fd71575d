package main

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

// Zone constants shared by the workloads that compose their own
// authoritative server (the same names cmd/authdns defaults to).
const (
	testSuffix   = "spf-test.dns-lab.example."
	notifySuffix = "dsav-mail.dns-lab.example."
	contact      = "research-contact@dns-lab.example"
	// recLabel stands in for the MTA label while the query mix is
	// recorded; replays substitute a fresh one.
	recLabel = "m000000"
)

var probeAddr = netip.MustParseAddr("203.0.113.66")

// testZone is the 39-policy zone at near-zero shaping delay: the
// workloads built on it measure serving cost, not the paper's pacing.
func testZone() *dnsserver.Zone {
	env := &policy.Env{Suffix: testSuffix, TimeScale: 1e-9}
	return &dnsserver.Zone{
		Suffix:     testSuffix,
		Contact:    dnsserver.FormatContact(contact),
		Responders: policy.RespondersWithDMARC(env, contact),
	}
}

func shutdownServer(srv *dnsserver.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// mixQuery is one query a compliant validator sends while evaluating a
// policy, with the reply the authoritative server gives it.
type mixQuery struct {
	// Prefix and Suffix are the name around the MTA label.
	Prefix, Suffix string
	Type           dns.Type
	// Rest are the labels left of the test label, as the server's log
	// attributes them.
	Rest []string
	// The expected reply: RCODE, answer count, and whether UDP
	// truncates so the client retries over TCP.
	RCode   dns.RCode
	Answers int
	TCP     bool
}

func (q mixQuery) name(label string) string { return q.Prefix + label + q.Suffix }

// policyMix is the validator query sequence of one test policy.
type policyMix struct {
	Test    string
	Queries []mixQuery
}

// recordingResolver notes every lookup the SPF evaluator makes.
type recordingResolver struct {
	inner spf.Resolver
	mu    sync.Mutex
	seen  map[string]bool
	seq   []mixQuery
}

func (r *recordingResolver) note(name string, t dns.Type) {
	name = dns.CanonicalName(name)
	// Names without the label (PTR lookups under in-addr.arpa) are
	// outside the zone and cannot be re-labelled; leave them out.
	i := strings.Index(name, "."+recLabel+".")
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "/" + t.String()
	if r.seen[key] {
		return // the validator's resolver would answer it from cache
	}
	r.seen[key] = true
	q := mixQuery{Prefix: name[:i+1], Suffix: name[i+1+len(recLabel):], Type: t}
	// Prefix is "<rest labels>.<test>."; everything left of the test
	// label is Rest.
	labels := strings.Split(strings.TrimSuffix(q.Prefix, "."), ".")
	q.Rest = labels[:len(labels)-1]
	r.seq = append(r.seq, q)
}

func (r *recordingResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	r.note(name, dns.TypeTXT)
	return r.inner.LookupTXT(ctx, name)
}

func (r *recordingResolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	r.note(name, dns.TypeA)
	return r.inner.LookupA(ctx, name)
}

func (r *recordingResolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	r.note(name, dns.TypeAAAA)
	return r.inner.LookupAAAA(ctx, name)
}

func (r *recordingResolver) LookupMX(ctx context.Context, name string) ([]spf.MXRecord, error) {
	r.note(name, dns.TypeMX)
	return r.inner.LookupMX(ctx, name)
}

func (r *recordingResolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	return r.inner.LookupPTR(ctx, ip)
}

// recordMix evaluates each of the 39 policies once with a compliant
// SPF checker against a throw-away, unlogged server of the same zone,
// and returns per policy the queries it sent and the replies they got.
// Truncation→TCP retries, void answers and A/AAAA/MX lookups occur at
// their natural share.
func recordMix() ([]policyMix, error) {
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{testZone()}}
	bound, err := srv.Start()
	if err != nil {
		return nil, err
	}
	defer shutdownServer(srv)
	addr := bound.String()
	ctx := context.Background()
	client := &dns.Client{Timeout: 2 * time.Second}
	zone := strings.TrimSuffix(testSuffix, ".")
	var mix []policyMix
	for _, test := range policy.Catalog() {
		rr := &recordingResolver{
			inner: resolver.New(resolver.Config{Server: addr}),
			seen:  map[string]bool{},
		}
		domain := fmt.Sprintf("%s.%s.%s", test.ID, recLabel, zone)
		checker := &spf.Checker{Resolver: rr}
		_ = checker.CheckHost(ctx, probeAddr, domain, "spf-test@"+domain, "probe.dns-lab.example")
		if len(rr.seq) == 0 {
			return nil, fmt.Errorf("policy %s: validator sent no queries", test.ID)
		}
		for i := range rr.seq {
			q := &rr.seq[i]
			msg := new(dns.Message).SetQuestion(q.name(recLabel), q.Type)
			resp, err := client.ExchangeOver(ctx, msg, "udp", addr)
			if err != nil {
				return nil, fmt.Errorf("policy %s: recording %s: %w", test.ID, q.name(recLabel), err)
			}
			if resp.Truncated {
				q.TCP = true
				if resp, err = client.ExchangeOver(ctx, msg, "tcp", addr); err != nil {
					return nil, fmt.Errorf("policy %s: recording %s over tcp: %w", test.ID, q.name(recLabel), err)
				}
			}
			q.RCode, q.Answers = resp.RCode, len(resp.Answers)
		}
		mix = append(mix, policyMix{Test: test.ID, Queries: rr.seq})
	}
	return mix, nil
}

// mixSize is the number of queries in one sweep over every policy, and
// how many of them are retried over TCP.
func mixSize(mix []policyMix) (queries, tcp int) {
	for _, p := range mix {
		queries += len(p.Queries)
		for _, q := range p.Queries {
			if q.TCP {
				tcp++
			}
		}
	}
	return queries, tcp
}

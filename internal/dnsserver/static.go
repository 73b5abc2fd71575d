package dnsserver

import (
	"net/netip"
	"strings"
	"sync"

	"sendervalid/internal/dns"
)

// Static is a conventional record-set responder: the alternative to
// on-the-fly synthesis for small zones (a sender domain's SPF + DKIM +
// DMARC records, test fixtures, the spfvalidator example). It also
// serves as the baseline for the synthesis-vs-static ablation: every
// record must be materialized up front.
type Static struct {
	mu      sync.RWMutex
	records map[staticKey][]dns.RR
	names   map[string]bool
}

type staticKey struct {
	name string
	typ  dns.Type
}

// NewStatic creates an empty record set.
func NewStatic() *Static {
	return &Static{
		records: make(map[staticKey][]dns.RR),
		names:   make(map[string]bool),
	}
}

// Add appends a record.
func (s *Static) Add(rr dns.RR) *Static {
	rr.Name = dns.CanonicalName(rr.Name)
	if rr.Class == 0 {
		rr.Class = dns.ClassINET
	}
	if rr.TTL == 0 {
		rr.TTL = 300
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := staticKey{name: rr.Name, typ: rr.Type}
	s.records[key] = append(s.records[key], rr)
	s.names[rr.Name] = true
	return s
}

// TXT adds a TXT record, splitting long payloads.
func (s *Static) TXT(name, payload string) *Static {
	return s.Add(TXTRecord(name, payload, 300))
}

// A adds an IPv4 address record.
func (s *Static) A(name string, addr netip.Addr) *Static {
	return s.Add(dns.RR{Name: name, Type: dns.TypeA, Data: &dns.A{Addr: addr}})
}

// AAAA adds an IPv6 address record.
func (s *Static) AAAA(name string, addr netip.Addr) *Static {
	return s.Add(dns.RR{Name: name, Type: dns.TypeAAAA, Data: &dns.AAAA{Addr: addr}})
}

// MX adds a mail-exchanger record.
func (s *Static) MX(name string, pref uint16, host string) *Static {
	return s.Add(dns.RR{Name: name, Type: dns.TypeMX, Data: &dns.MX{Preference: pref, Host: host}})
}

// SPF publishes an SPF policy (a TXT record) for name.
func (s *Static) SPF(name, policy string) *Static { return s.TXT(name, policy) }

// DKIMKey publishes a DKIM key record at <selector>._domainkey.<domain>.
func (s *Static) DKIMKey(selector, domain, record string) *Static {
	return s.TXT(selector+"._domainkey."+strings.TrimSuffix(domain, "."), record)
}

// DMARC publishes a DMARC policy at _dmarc.<domain>.
func (s *Static) DMARC(domain, policy string) *Static {
	return s.TXT("_dmarc."+strings.TrimSuffix(domain, "."), policy)
}

// Respond implements Responder: exact-match on (name, type), CNAMEs
// included on type mismatch, NXDOMAIN for unknown names, NOERROR/empty
// for known names without the type.
func (s *Static) Respond(q *Query) Response {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rrs, ok := s.records[staticKey{name: q.Name, typ: q.Type}]; ok {
		return Response{Records: append([]dns.RR(nil), rrs...)}
	}
	// A CNAME at the name answers any type, with the target's records
	// appended when held locally.
	if cnames, ok := s.records[staticKey{name: q.Name, typ: dns.TypeCNAME}]; ok {
		out := append([]dns.RR(nil), cnames...)
		for _, rr := range cnames {
			target := dns.CanonicalName(rr.Data.(*dns.CNAME).Target)
			out = append(out, s.records[staticKey{name: target, typ: q.Type}]...)
		}
		return Response{Records: out}
	}
	if s.names[q.Name] {
		return Response{} // name exists, type does not: NOERROR empty
	}
	return Response{RCode: dns.RCodeNameError}
}

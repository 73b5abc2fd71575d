package dnsserver

import (
	"cmp"
	"context"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/netsim"
	"sendervalid/internal/trace"
)

// Query is a parsed, attributed query handed to a Responder.
type Query struct {
	// Name is the canonical query name.
	Name string
	// Type is the query type.
	Type dns.Type
	// TestID and MTAID are the identifying labels (paper §4.4).
	TestID string
	MTAID  string
	// Rest holds labels left of the test label, leftmost first.
	Rest []string
	// Transport is "udp" or "tcp".
	Transport string
}

// Response is a Responder's synthesized answer plus shaping directives.
type Response struct {
	// Records go in the answer section.
	Records []dns.RR
	// RCode overrides NOERROR when non-zero.
	RCode dns.RCode
	// Delay holds the response back this long (WriteMsgAfter, so no
	// socket reader waits), implementing the paper's 100 ms / 800 ms
	// response shaping (§7.1, §7.2).
	Delay time.Duration
	// TruncateUDP forces a truncated empty response over UDP, eliciting
	// a TCP retry (the paper's TCP test policy, §7.3).
	TruncateUDP bool
	// RequireIPv6 refuses the query unless it arrived over IPv6 (the
	// paper's IPv6-only test policy, §7.3).
	RequireIPv6 bool
}

// Responder synthesizes the response for one attributed query.
type Responder interface {
	Respond(q *Query) Response
}

// Zone is an authoritative suffix served synthetically.
type Zone struct {
	// Suffix is the zone apex, e.g. "spf-test.dns-lab.example.".
	Suffix string
	// Contact is the responsible-party address published in the SOA
	// RNAME field for experiment attribution (paper §5.3), in DNS
	// name form ("hostmaster.example.com." for hostmaster@example.com).
	Contact string
	// Responders maps a test-policy label (e.g. "t01") to the
	// responder that synthesizes answers for names carrying it.
	Responders map[string]Responder
	// Default answers queries whose test label has no dedicated
	// responder (and apex queries). Optional.
	Default Responder
	// LabelDepth is the number of identifying labels directly under
	// the suffix: 2 for <testid>.<mtaid>.<suffix> (NotifyMX and
	// TwoWeekMX), 1 for <domainid>.<suffix> (NotifyEmail). Default 2.
	LabelDepth int
	// NoLog excludes this zone's queries from the server's query log.
	// Infrastructure zones (e.g. the simulated recipient-domain MX
	// records) would otherwise pollute the measurement signal with
	// meaningless attribution labels.
	NoLog bool

	// compileOnce guards the precomputed fields below, derived once (at
	// Server.Start, or lazily on first use) so the per-query path never
	// re-canonicalizes the suffix or re-derives the label depth.
	compileOnce sync.Once
	suffix      string // canonical Suffix
	depth       int    // effective LabelDepth
}

// compile precomputes the zone's canonical suffix and effective depth.
func (z *Zone) compile() {
	z.compileOnce.Do(func() {
		z.suffix = dns.CanonicalName(z.Suffix)
		z.depth = z.LabelDepth
		if z.depth == 0 {
			z.depth = 2
		}
	})
}

// matchesSuffix reports whether the canonical name lies under the
// compiled zone suffix, without allocating.
func (z *Zone) matchesSuffix(name string) bool {
	if z.suffix == "." {
		return true
	}
	if len(name) == len(z.suffix) {
		return name == z.suffix
	}
	return len(name) > len(z.suffix) && strings.HasSuffix(name, z.suffix) &&
		name[len(name)-len(z.suffix)-1] == '.'
}

// parse attributes a query name within the zone. ok is false when the
// name is not under the zone suffix. For the common attributed shapes
// (<testid>.<mtaid>.<suffix> and <domainid>.<suffix>) it performs no
// allocations beyond the Query itself: the identifying labels are
// substrings of name, and Rest stays nil unless extra labels exist.
func (z *Zone) parse(name string, qtype dns.Type, transport string) (*Query, bool) {
	name = dns.CanonicalName(name)
	z.compile()
	if !z.matchesSuffix(name) {
		return nil, false
	}
	q := &Query{Name: name, Type: qtype, Transport: transport}
	sub := name[:len(name)-len(z.suffix)]
	sub = strings.TrimSuffix(sub, ".")
	if sub == "" {
		return q, true // apex
	}
	last := strings.LastIndexByte(sub, '.')
	q.MTAID = sub[last+1:]
	rest := ""
	if last >= 0 {
		rest = sub[:last]
	}
	if z.depth >= 2 && rest != "" {
		if i := strings.LastIndexByte(rest, '.'); i >= 0 {
			q.TestID = rest[i+1:]
			rest = rest[:i]
		} else {
			q.TestID = rest
			rest = ""
		}
	}
	if rest != "" {
		q.Rest = strings.Split(rest, ".")
	}
	return q, true
}

// responderFor selects the responder for an attributed query: two-label
// zones key on the test-policy label, while single-identifier zones key
// on the first rest label when present, otherwise the domain id itself.
func (z *Zone) responderFor(q *Query) Responder {
	key := q.TestID
	if z.depth == 1 {
		if len(q.Rest) > 0 {
			key = q.Rest[0]
		} else {
			key = q.MTAID
		}
	}
	if key != "" {
		if r, ok := z.Responders[key]; ok {
			return r
		}
	}
	return z.Default
}

// Server is the synthesizing authoritative server. It serves the
// configured zones on host sockets (Start: an IPv4 and optionally an
// IPv6 endpoint) or at addresses of a simulated fabric (Serve), and
// records every query in its log.
type Server struct {
	// Zones are served authoritatively. Longest-suffix match wins.
	Zones []*Zone
	// Addr4 and Addr6 are the addresses Start binds. Addr4 defaults to
	// "127.0.0.1:0"; Addr6 is optional ("[::1]:0" to enable).
	Addr4 string
	Addr6 string
	// Log records every query: a *QueryLog for in-memory collection,
	// or an *AsyncLog wrapping a disk sink so logging backpressure can
	// never stall query serving. A nil log disables recording.
	Log Sink
	// MaxQPSPerSource and BurstPerSource configure the underlying
	// endpoints' per-source rate limiting (REFUSED over budget); zero
	// disables it.
	MaxQPSPerSource float64
	BurstPerSource  int
	// Logf receives the endpoints' diagnostics (recovered handler
	// panics). Nil discards them.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, is handed to both transport endpoints so
	// each served query gets a "dns.serve" root span; the handler
	// annotates it with the (testid, mtaid) attribution.
	Tracer *trace.Tracer

	eps []endpoint         // the transport endpoints, in the order bound
	lns []*netsim.Listener // Serve's stream registrations on the fabric

	// initOnce guards ordered: the zones compiled and sorted
	// longest-suffix-first at Start, so the per-query zoneFor walk is a
	// first-match scan with no canonicalization or length bookkeeping.
	initOnce sync.Once
	ordered  []*Zone

	metrics serverMetrics
}

// init compiles every zone and orders them longest-suffix-first, and
// creates the always-on instruments the handler increments: the
// per-policy query counters are fixed here by the zones' responders.
func (s *Server) init() {
	s.initOnce.Do(func() {
		s.ordered = make([]*Zone, len(s.Zones))
		copy(s.ordered, s.Zones)
		for _, z := range s.ordered {
			z.compile()
		}
		sort.SliceStable(s.ordered, func(i, j int) bool {
			return len(s.ordered[i].suffix) > len(s.ordered[j].suffix)
		})
		s.metrics.init(s.ordered)
	})
}

// Start binds Addr4 and, when set, Addr6 on host sockets and serves
// them. It returns the bound IPv4 address; Addr6Bound exposes the IPv6
// one.
func (s *Server) Start() (net.Addr, error) {
	s.init()
	v4 := s.newEndpoint(false)
	v4.Addr = cmp.Or(s.Addr4, "127.0.0.1:0")
	bound, err := v4.Start()
	if err != nil {
		return nil, err
	}
	s.eps = append(s.eps, v4)
	if s.Addr6 != "" {
		v6 := s.newEndpoint(true)
		v6.Addr = s.Addr6
		if _, err := v6.Start(); err != nil {
			_ = s.Shutdown(context.Background())
			return nil, err
		}
		s.eps = append(s.eps, v6)
	}
	return bound, nil
}

// Serve answers at each of addrs on the simulated fabric f: UDP on an
// endpoint it binds there, TCP by the fabric handing each connection
// to that endpoint. Queries to an IPv6 address are the ones logged
// OverIPv6. On error nothing is left serving.
func (s *Server) Serve(f *netsim.Fabric, addrs ...netip.AddrPort) error {
	s.init()
	for _, addr := range addrs {
		if err := s.bind(f, addr); err != nil {
			_ = s.Shutdown(context.Background())
			return err
		}
	}
	return nil
}

// bind serves one endpoint at addr on f. The endpoint joins s.eps as
// soon as it serves, so Shutdown stops it even when Handle fails.
func (s *Server) bind(f *netsim.Fabric, addr netip.AddrPort) error {
	pc, err := f.ListenPacket(addr)
	if err != nil {
		return err
	}
	ep := s.newEndpoint(addr.Addr().Is6())
	if err := ep.Serve(pc); err != nil {
		pc.Close()
		return err
	}
	s.eps = append(s.eps, ep)
	ln, err := f.Handle(addr, ep.ServeConn)
	if err != nil {
		return err
	}
	s.lns = append(s.lns, ln)
	return nil
}

// endpoint is one transport endpoint, and whether its queries are the
// ones logged OverIPv6.
type endpoint struct {
	*dns.Server
	v6 bool
}

// newEndpoint builds one transport endpoint with the server's hardening
// configuration applied.
func (s *Server) newEndpoint(v6 bool) endpoint {
	return endpoint{&dns.Server{
		Handler:         s.handler(v6),
		MaxQPSPerSource: s.MaxQPSPerSource,
		BurstPerSource:  s.BurstPerSource,
		Logf:            s.Logf,
		Tracer:          s.Tracer,
	}, v6}
}

// Panics returns the number of handler panics — a responder's
// included — the endpoints recovered into SERVFAIL answers since Start.
func (s *Server) Panics() uint64 {
	var n uint64
	for _, ep := range s.eps {
		n += ep.Panics()
	}
	return n
}

// Refused returns the number of rate-limited queries across endpoints.
func (s *Server) Refused() uint64 {
	var n uint64
	for _, ep := range s.eps {
		n += ep.Refused()
	}
	return n
}

// Addr6Bound returns the bound IPv6 endpoint, or nil when none is.
func (s *Server) Addr6Bound() net.Addr {
	for _, ep := range s.eps {
		if ep.v6 {
			return ep.LocalAddr()
		}
	}
	return nil
}

// Shutdown deregisters Serve's fabric addresses, so no connection is
// handed over any more, then stops every endpoint. It returns the
// first endpoint's error.
func (s *Server) Shutdown(ctx context.Context) error {
	for _, ln := range s.lns {
		ln.Close()
	}
	var first error
	for _, ep := range s.eps {
		if err := ep.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// zoneFor returns the longest-suffix zone containing the canonical
// name. The ordered index makes this a first-match scan.
func (s *Server) zoneFor(name string) *Zone {
	s.init()
	for _, z := range s.ordered {
		if z.matchesSuffix(name) {
			return z
		}
	}
	return nil
}

func (s *Server) handler(v6 bool) dns.Handler {
	return dns.HandlerFunc(func(w dns.ResponseWriter, r *dns.Request) {
		// r.Msg is pooled by the transport endpoint: everything the
		// handler keeps past this call (names, attribution labels) is
		// extracted here, never retained as references into r.Msg.
		question := r.Msg.Question()
		name := dns.CanonicalName(question.Name)
		zone := s.zoneFor(name)
		if zone == nil {
			s.metrics.zoneMiss.Inc()
			resp := dns.GetMsg().SetReply(r.Msg)
			defer dns.PutMsg(resp)
			resp.RCode = dns.RCodeRefused
			_ = w.WriteMsg(resp)
			return
		}
		q, _ := zone.parse(name, question.Type, r.Transport)
		s.metrics.countQuery(q.TestID)
		if sp := r.Span; sp != nil {
			sp.SetAttr("name", q.Name)
			sp.SetAttr("type", q.Type.String())
			if q.TestID != "" {
				sp.SetAttr("test", q.TestID)
			}
			if q.MTAID != "" {
				sp.SetAttr("mta", q.MTAID)
			}
		}

		if s.Log != nil && !zone.NoLog {
			s.Log.Append(LogEntry{
				Time:      r.Received,
				Name:      q.Name,
				Type:      q.Type,
				TestID:    q.TestID,
				MTAID:     q.MTAID,
				Rest:      q.Rest,
				Transport: r.Transport,
				OverIPv6:  v6,
				Remote:    r.RemoteString(),
			})
		}

		resp := dns.GetMsg().SetReply(r.Msg)
		defer dns.PutMsg(resp)
		resp.Authoritative = true
		var delay time.Duration

		// Built-in apex records: SOA and the attribution contact.
		if q.Name == zone.suffix && (q.Type == dns.TypeSOA || q.Type == dns.TypeANY) {
			resp.Answers = append(resp.Answers, s.soa(zone))
		} else if responder := zone.responderFor(q); responder == nil {
			resp.RCode = dns.RCodeNameError
		} else {
			// A responder panic is recovered by dns.Server.serveRequest.
			shaped := responder.Respond(q)
			delay = shaped.Delay
			switch {
			case shaped.RequireIPv6 && !v6:
				resp.RCode = dns.RCodeRefused
			case shaped.TruncateUDP && r.Transport == "udp":
				resp.Truncated = true
			default:
				resp.RCode = shaped.RCode
				resp.Answers = shaped.Records
			}
		}
		// A negative answer, NXDOMAIN or NODATA, carries the SOA its
		// lifetime is read from (RFC 2308 §3).
		if len(resp.Answers) == 0 && !resp.Truncated &&
			(resp.RCode == dns.RCodeNameError || resp.RCode == dns.RCodeSuccess) {
			resp.Authority = append(resp.Authority, s.soa(zone))
		}
		_ = w.WriteMsgAfter(resp, delay)
	})
}

// soaTTL is the TTL of the SOA record a negative answer carries.
const soaTTL = 60

func (s *Server) soa(z *Zone) dns.RR {
	contact := z.Contact
	if contact == "" {
		contact = prefixName("hostmaster", z.Suffix)
	}
	return dns.RR{
		Name: dns.CanonicalName(z.Suffix), Type: dns.TypeSOA, Class: dns.ClassINET,
		TTL: soaTTL,
		Data: &dns.SOA{
			MName: prefixName("ns1", z.Suffix), RName: dns.CanonicalName(contact),
			Serial: 2021100401, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		},
	}
}

// prefixName joins a label onto a zone suffix, handling the root zone
// (where naive concatenation would produce an empty label).
func prefixName(label, suffix string) string {
	suffix = dns.CanonicalName(suffix)
	if suffix == "." {
		return label + "."
	}
	return label + "." + suffix
}

// TXTRecord builds a TXT resource record for name, splitting long
// payloads into 255-octet character-strings.
func TXTRecord(name, payload string, ttl uint32) dns.RR {
	return dns.RR{
		Name: dns.CanonicalName(name), Type: dns.TypeTXT, Class: dns.ClassINET, TTL: ttl,
		Data: &dns.TXT{Strings: dns.SplitTXT(payload)},
	}
}

// Rejoin reassembles a Query's identifying labels into the name that
// carries them, for building follow-up names in synthesized policies:
// Rejoin(q, suffix, "l1") prepends "l1" to the (testid, mtaid) base
// name.
func Rejoin(q *Query, suffix string, extra ...string) string {
	labels := append([]string(nil), extra...)
	if q.TestID != "" {
		labels = append(labels, q.TestID)
	}
	if q.MTAID != "" {
		labels = append(labels, q.MTAID)
	}
	base := strings.Join(labels, ".")
	if base == "" {
		return dns.CanonicalName(suffix)
	}
	return dns.CanonicalName(base + "." + dns.CanonicalName(suffix))
}

// FormatContact converts a mailbox ("hostmaster@example.com") to SOA
// RNAME form ("hostmaster.example.com.").
func FormatContact(mailbox string) string {
	local, domain, ok := strings.Cut(mailbox, "@")
	if !ok {
		return dns.CanonicalName(mailbox)
	}
	return dns.CanonicalName(strings.ReplaceAll(local, ".", "\\.") + "." + domain)
}

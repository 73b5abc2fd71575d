package mtasim

import (
	"context"
	"fmt"
	"net/mail"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dkim"
	"sendervalid/internal/dmarc"
	"sendervalid/internal/netsim"
	"sendervalid/internal/resolver"
	"sendervalid/internal/smtp"
	"sendervalid/internal/spf"
)

// Config wires one simulated MTA into the world.
type Config struct {
	// ID is the MTA's identifier in the experiment ("m00042").
	ID string
	// Hostname is announced over SMTP.
	Hostname string
	// Addr4 and Addr6 are the MTA's synthetic public addresses; it
	// listens on port 25 of each valid one.
	Addr4 netip.Addr
	Addr6 netip.Addr
	// Profile governs behaviour.
	Profile Profile
	// Fabric carries the MTA's SMTP sessions and its resolver's
	// queries.
	Fabric *netsim.Fabric
	// DNSAddr and DNSAddr6 are the upstream DNS endpoints on Fabric for
	// the MTA's resolver, which queries from the MTA's own addresses
	// (see resolverAddr6).
	DNSAddr  string
	DNSAddr6 string
	// SPFTimeout bounds one SPF evaluation. Zero means the RFC's 20 s.
	SPFTimeout time.Duration
	// DNSTimeout bounds one DNS exchange. Zero means 5 s.
	DNSTimeout time.Duration
	// PostDataDelay is how long after accepting a message a PostData
	// validator waits before validating (Figure 2's positive tail).
	PostDataDelay time.Duration
	// BlacklistedSources restricts RejectProbe to sessions from these
	// client addresses (the study's probing client landed on real
	// blacklists, §6.2; mail from other sources is unaffected). Empty
	// means RejectProbe rejects every session.
	BlacklistedSources []netip.Addr
	// Metrics, when non-nil, receives fleet-level telemetry: every
	// increment of the MTA's own counters is mirrored into it.
	Metrics *Metrics
}

// Stats counts an MTA's activity.
type Stats struct {
	Sessions           int
	RejectedSessions   int
	TempfailedSessions int
	SPFChecks          int
	HELOChecks         int
	DKIMChecks         int
	DMARCChecks        int
	MessagesAccepted   int
	MessagesRejected   int
}

// MTA is one simulated receiving mail server.
type MTA struct {
	cfg      Config
	resolver *resolver.Resolver
	checker  *spf.Checker
	server   *smtp.Server

	stats counters
	async sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// New builds an MTA from cfg. Start must be called to serve.
func New(cfg Config) *MTA {
	res := resolver.New(resolver.Config{
		Server:     cfg.DNSAddr,
		Server6:    cfg.DNSAddr6,
		Transport:  cfg.Profile.ResolverTransport,
		DisableTCP: cfg.Profile.ResolverNoTCP,
		Timeout:    cfg.DNSTimeout,
		Dialer:     cfg.Fabric.BoundDialer(cfg.Addr4, resolverAddr6(cfg.Addr4, cfg.Addr6)),
	})
	opts := cfg.Profile.SPFOptions
	if cfg.SPFTimeout > 0 && opts.Timeout == 0 {
		opts.Timeout = cfg.SPFTimeout
	}
	opts.Receiver = cfg.Hostname
	m := &MTA{
		cfg:      cfg,
		resolver: res,
		checker:  &spf.Checker{Resolver: res, Options: opts},
	}
	m.server = &smtp.Server{
		Hostname:    cfg.Hostname,
		Extensions:  []string{"8BITMIME", "SIZE 10485760"},
		ReadTimeout: 120 * time.Second,
		Handler: smtp.Handler{
			OnConnect: m.onConnect,
			OnHelo:    m.onHelo,
			OnMail:    m.onMail,
			OnRcpt:    m.onRcpt,
			OnData:    m.onData,
			OnMessage: m.onMessage,
		},
	}
	return m
}

// nat64 is the well-known NAT64 prefix, 64:ff9b::/96 (RFC 6052).
var nat64 = netip.MustParseAddr("64:ff9b::").As16()

// resolverAddr6 is the source address of the MTA resolver's IPv6
// queries: the MTA's own IPv6 address, or for a v4-only MTA its IPv4
// address under 64:ff9b::/96. A real MTA's resolver is a recursive
// server whose address family the MTA's own does not decide, so whether
// the resolver reaches an IPv6-only name server stays up to its
// ResolverTransport alone (the paper's IPv6 test, §7.3).
func resolverAddr6(addr4, addr6 netip.Addr) netip.Addr {
	if addr6.IsValid() || !addr4.Is4() {
		return addr6
	}
	a := nat64
	v4 := addr4.As4()
	copy(a[12:], v4[:])
	return netip.AddrFrom16(a)
}

// Profile returns the MTA's behaviour profile.
func (m *MTA) Profile() Profile { return m.cfg.Profile }

// Start registers the MTA's listeners on the fabric and begins
// serving.
func (m *MTA) Start() error {
	started := 0
	for _, addr := range []netip.Addr{m.cfg.Addr4, m.cfg.Addr6} {
		if !addr.IsValid() {
			continue
		}
		ln, err := m.cfg.Fabric.Listen(netip.AddrPortFrom(addr, 25))
		if err != nil {
			return fmt.Errorf("mtasim: %s: %w", m.cfg.ID, err)
		}
		go m.server.Serve(ln)
		started++
	}
	if started == 0 {
		return fmt.Errorf("mtasim: %s has no valid addresses", m.cfg.ID)
	}
	return nil
}

// Close stops serving and waits for asynchronous validations.
func (m *MTA) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.server.Close()
	m.async.Wait()
}

// Wait blocks until asynchronous (post-data) validations finish.
func (m *MTA) Wait() { m.async.Wait() }

// Stats returns a snapshot of the MTA's counters.
func (m *MTA) Stats() Stats {
	v := func(i stat) int { return int(m.stats[i].Load()) }
	return Stats{
		Sessions:           v(statSessions),
		RejectedSessions:   v(statRejectedSessions),
		TempfailedSessions: v(statTempfailedSessions),
		SPFChecks:          v(statSPFChecks),
		HELOChecks:         v(statHELOChecks),
		DKIMChecks:         v(statDKIMChecks),
		DMARCChecks:        v(statDMARCChecks),
		MessagesAccepted:   v(statMessagesAccepted),
		MessagesRejected:   v(statMessagesRejected),
	}
}

// bump counts one event for the MTA and, when configured, the fleet,
// and returns the MTA's count after it.
func (m *MTA) bump(i stat) uint64 {
	if f := m.cfg.Metrics; f != nil {
		f.c[i].Add(1)
	}
	return m.stats[i].Add(1)
}

// --- SMTP hooks ---

func (m *MTA) onConnect(s *smtp.Session) *smtp.Reply {
	n := m.bump(statSessions)
	if tf := m.cfg.Profile.TempfailSessions; tf > 0 && n <= uint64(tf) {
		m.bump(statTempfailedSessions)
		return &smtp.Reply{Code: 421, Text: m.cfg.Hostname + " greylisted, try again later"}
	}
	if m.cfg.Profile.RejectProbe && m.blacklisted(s.ClientIP) {
		m.bump(statRejectedSessions)
		return &smtp.Reply{Code: 554, Text: m.cfg.Profile.RejectText}
	}
	return nil
}

// blacklisted reports whether the client address triggers the
// profile's probe rejection.
func (m *MTA) blacklisted(ip netip.Addr) bool {
	if len(m.cfg.BlacklistedSources) == 0 {
		return true
	}
	for _, b := range m.cfg.BlacklistedSources {
		if b == ip {
			return true
		}
	}
	return false
}

func (m *MTA) onHelo(s *smtp.Session) *smtp.Reply {
	// The HELO identity check runs together with MAIL validation (see
	// runSPF): the paper observed every HELO-checking MTA proceeding
	// to the MAIL identity (§7.3), which matches implementations that
	// evaluate both identities in one validation pass.
	return nil
}

func (m *MTA) onMail(s *smtp.Session, from string) *smtp.Reply {
	p := m.cfg.Profile
	if p.ValidatesSPF && m.effectivePhase() == AtMail {
		outcome := m.runSPF(s, from)
		if outcome != nil && p.EnforceSPF && outcome.Result == spf.Fail {
			m.bump(statMessagesRejected)
			return &smtp.Reply{Code: 550, Text: "5.7.1 SPF validation failed for " + smtp.DomainOf(from)}
		}
	}
	return nil
}

// effectivePhase resolves the configured phase against the whitelist
// constraint: a postmaster-whitelisting MTA cannot decide at MAIL
// time, so it defers to DATA.
func (m *MTA) effectivePhase() ValidationPhase {
	p := m.cfg.Profile
	if p.Phase == AtMail && p.WhitelistPostmaster {
		return AtData
	}
	return p.Phase
}

func (m *MTA) onRcpt(s *smtp.Session, to string) *smtp.Reply {
	p := m.cfg.Profile
	local := strings.ToLower(smtp.LocalOf(to))
	if local == "postmaster" {
		if p.RejectPostmaster {
			return smtp.ReplyNoSuchUser
		}
		return nil
	}
	if p.AcceptAnyUser {
		return nil
	}
	for _, u := range p.ValidUsers {
		if strings.EqualFold(u, local) {
			return nil
		}
	}
	return smtp.ReplyNoSuchUser
}

func (m *MTA) onData(s *smtp.Session) *smtp.Reply {
	p := m.cfg.Profile
	if !p.ValidatesSPF || m.effectivePhase() != AtData {
		return nil
	}
	if m.whitelisted(s) {
		return nil
	}
	outcome := m.runSPF(s, s.MailFrom)
	if outcome != nil && p.EnforceSPF && outcome.Result == spf.Fail {
		m.bump(statMessagesRejected)
		return &smtp.Reply{Code: 550, Text: "5.7.1 SPF validation failed"}
	}
	return nil
}

// whitelisted reports whether sender validation is skipped because
// every accepted recipient is postmaster.
func (m *MTA) whitelisted(s *smtp.Session) bool {
	if !m.cfg.Profile.WhitelistPostmaster || len(s.RcptTo) == 0 {
		return false
	}
	for _, rcpt := range s.RcptTo {
		if !strings.EqualFold(smtp.LocalOf(rcpt), "postmaster") {
			return false
		}
	}
	return true
}

func (m *MTA) onMessage(s *smtp.Session, msg []byte) *smtp.Reply {
	p := m.cfg.Profile
	clientIP, mailFrom, helo := s.ClientIP, s.MailFrom, s.Helo
	whitelisted := m.whitelisted(s)

	if p.ValidatesSPF && m.effectivePhase() == PostData && !whitelisted {
		// Validation after delivery: runs in the background, after the
		// 250 reply — invisible to probes, visible (late) to the
		// NotifyEmail experiment (Figure 2's positive tail).
		m.async.Add(1)
		go func() {
			defer m.async.Done()
			if m.cfg.PostDataDelay > 0 {
				time.Sleep(m.cfg.PostDataDelay)
			}
			sess := &smtp.Session{ClientIP: clientIP, MailFrom: mailFrom, Helo: helo}
			m.runSPF(sess, mailFrom)
		}()
	}

	var spfResult spf.Result = spf.None
	spfDomain := smtp.DomainOf(mailFrom)
	if v, ok := s.Meta["spf"].(spf.Result); ok {
		spfResult = v
	}

	var dkimResult dkim.Result = dkim.ResultNone
	dkimDomain := ""
	if p.ValidatesDKIM {
		m.bump(statDKIMChecks)
		verifier := &dkim.Verifier{Resolver: m.resolver}
		v := verifier.Verify(context.Background(), msg)
		dkimResult, dkimDomain = v.Result, v.Domain
	}

	if p.ValidatesDMARC {
		m.bump(statDMARCChecks)
		fromDomains := []string{spfDomain}
		if parsed, err := dkim.ParseMessage(msg); err == nil && parsed.Get("From") != "" {
			fromDomains = authorDomains(parsed.Get("From"))
		}
		for _, fromDomain := range fromDomains {
			eval := (&dmarc.Evaluator{Resolver: m.resolver}).Evaluate(context.Background(), dmarc.Inputs{
				FromDomain: fromDomain,
				SPFResult:  spfResult, SPFDomain: spfDomain,
				DKIMResult: dkimResult, DKIMDomain: dkimDomain,
			})
			if p.EnforceDMARC && eval.Result == dmarc.ResultFail && eval.Disposition == dmarc.Reject {
				m.bump(statMessagesRejected)
				return &smtp.Reply{Code: 550, Text: "5.7.1 rejected by DMARC policy of " + fromDomain}
			}
		}
	}

	m.bump(statMessagesAccepted)
	return nil
}

// authorDomains returns the Author Domains of a From header value, in
// order and without repeats. When From names several authors, RFC 7489
// §6.6.1 checks DMARC once per Author Domain and the strictest failing
// policy applies. A value net/mail cannot parse as an address list, or
// one that names no address at all (an empty group such as
// "undisclosed:;"), yields one empty domain, which DMARC answers with
// permerror.
func authorDomains(from string) []string {
	addrs, err := mail.ParseAddressList(from)
	if err != nil || len(addrs) == 0 {
		return []string{""}
	}
	var out []string
	for _, a := range addrs {
		if d := smtp.DomainOf(a.Address); !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// runSPF performs the SPF check for the session — the HELO identity
// first when the profile checks it, then the MAIL identity (or the
// partial fetch-only variant) — and records the result.
func (m *MTA) runSPF(s *smtp.Session, from string) *spf.Outcome {
	domain := smtp.DomainOf(from)
	if domain == "" {
		domain = s.Helo
	}
	m.bump(statSPFChecks)
	ctx := context.Background()
	if m.cfg.Profile.PartialSPF {
		// Fetch the policy but never evaluate it — no follow-up
		// queries (§6.1's 690 partial validators).
		_, _ = m.resolver.LookupTXT(ctx, domain)
		return nil
	}
	if m.cfg.Profile.ChecksHELO && s.Helo != "" {
		m.bump(statHELOChecks)
		// Per the paper (§7.3), the HELO outcome is effectively
		// ignored: evaluation proceeds to the MAIL identity always.
		_ = m.checker.CheckHost(ctx, s.ClientIP, s.Helo, "postmaster@"+s.Helo, s.Helo)
	}
	out := m.checker.CheckHost(ctx, s.ClientIP, domain, from, s.Helo)
	if s.Meta != nil {
		s.Meta["spf"] = out.Result
	}
	return out
}

package mtasim

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"math"
	mrand "math/rand"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/dkim"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/resolver"
	"sendervalid/internal/smtp"
)

const (
	testSuffix   = "spf-test.dns-lab.example."
	notifySuffix = "dsav-mail.dns-lab.example."
)

var (
	senderV4 = netip.MustParseAddr("203.0.113.10")
	senderV6 = netip.MustParseAddr("2001:db8::10")
)

// world is a complete simulated environment: a fabric, and on it
// authoritative DNS with the full policy catalog plus the NotifyEmail
// zone, at an IPv4 and an IPv6 endpoint.
type world struct {
	fabric   *netsim.Fabric
	dns      *dnsserver.Server
	log      *dnsserver.QueryLog
	dnsAddr  string
	dnsAddr6 string
	signer   *dkim.Signer
}

var (
	worldKeyOnce sync.Once
	worldRSAKey  *rsa.PrivateKey
	worldKeyTXT  string
)

func newWorld(t *testing.T) *world {
	t.Helper()
	worldKeyOnce.Do(func() {
		var err error
		worldRSAKey, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		worldKeyTXT, err = dkim.FormatKeyRecord(&worldRSAKey.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
	})
	env := &policy.Env{Suffix: testSuffix, TimeScale: 0.01}
	neCfg := &policy.NotifyEmailConfig{
		Suffix:        notifySuffix,
		SenderV4:      senderV4,
		SenderV6:      senderV6,
		DKIMSelector:  "exp",
		DKIMKeyRecord: worldKeyTXT,
		Contact:       "contact@dns-lab.example",
		TimeScale:     0.01,
	}
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{
			{Suffix: testSuffix, Responders: policy.RespondersWithDMARC(env, "contact@dns-lab.example")},
			{Suffix: notifySuffix, LabelDepth: 1, Default: neCfg.Responder()},
			// A domain outside the study's organizational domain, for a
			// spoofed author's policy.
			{Suffix: "bank.example.", LabelDepth: 1, Default: dnsserver.NewStatic().DMARC("bank.example", "v=DMARC1; p=reject")},
		},
		Log: log,
	}
	fabric := netsim.NewFabric()
	addr4 := netip.MustParseAddrPort("192.0.2.53:53")
	addr6 := netip.MustParseAddrPort("[2001:db8:53::53]:53")
	var pcs [2]*netsim.PacketConn
	var lns [2]*netsim.Listener
	for i, addr := range []netip.AddrPort{addr4, addr6} {
		var err error
		if pcs[i], err = fabric.ListenPacket(addr); err != nil {
			t.Fatal(err)
		}
		if lns[i], err = fabric.Listen(addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Serve(pcs[0], lns[0], pcs[1], lns[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return &world{
		fabric:   fabric,
		dns:      srv,
		log:      log,
		dnsAddr:  addr4.String(),
		dnsAddr6: addr6.String(),
		signer:   &dkim.Signer{Domain: "", Selector: "exp", Key: worldRSAKey},
	}
}

func (w *world) startMTA(t *testing.T, id string, addr4 string, p Profile) *MTA {
	t.Helper()
	m := New(Config{
		ID:         id,
		Hostname:   id + ".mx.example",
		Addr4:      netip.MustParseAddr(addr4),
		Profile:    p,
		Fabric:     w.fabric,
		DNSAddr:    w.dnsAddr,
		DNSAddr6:   w.dnsAddr6,
		SPFTimeout: 10 * time.Second,
		DNSTimeout: 3 * time.Second,
	})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// probe runs the study's probe sequence against an MTA for one test id
// and returns the error of the first failing step (nil if all passed).
func (w *world) probe(t *testing.T, mtaAddr, testID, mtaID string) error {
	t.Helper()
	c, err := smtp.Dial(context.Background(), w.fabric, mtaAddr+":25")
	if err != nil {
		return err
	}
	defer c.Abort()
	c.Timeout = 5 * time.Second
	if err := c.Hello("probe.dns-lab.example"); err != nil {
		return err
	}
	from := "spf-test@" + testID + "." + mtaID + "." + strings.TrimSuffix(testSuffix, ".")
	if err := c.Mail(from); err != nil {
		return err
	}
	var rcptErr error
	for _, user := range []string{"michael", "john.smith", "support", "postmaster"} {
		if rcptErr = c.Rcpt(user + "@target.example"); rcptErr == nil {
			break
		}
	}
	if rcptErr != nil {
		return rcptErr
	}
	_, _, err = c.DataCommand()
	return err
}

// queriesFor summarizes the queries logged for one MTA id.
func (w *world) queriesFor(mtaID string) []string {
	var out []string
	for _, e := range w.log.Entries() {
		if e.MTAID == mtaID {
			out = append(out, e.Type.String()+" "+e.Name)
		}
	}
	return out
}

func TestValidatingMTAProbeElicitsSPFQueries(t *testing.T) {
	w := newWorld(t)
	mta := w.startMTA(t, "m1", "10.0.0.1", Profile{
		ValidatesSPF: true, Phase: AtMail, AcceptAnyUser: true,
	})
	if err := w.probe(t, "10.0.0.1", "t12", "m1"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	qs := w.queriesFor("m1")
	if len(qs) == 0 {
		t.Fatal("validating MTA issued no queries")
	}
	if !strings.HasPrefix(qs[0], "TXT t12.m1.") {
		t.Errorf("first query %q", qs[0])
	}
	if mta.Stats().SPFChecks != 1 {
		t.Errorf("SPF checks: %d", mta.Stats().SPFChecks)
	}
}

func TestNonValidatingMTASilent(t *testing.T) {
	w := newWorld(t)
	w.startMTA(t, "m2", "10.0.0.2", Profile{AcceptAnyUser: true})
	if err := w.probe(t, "10.0.0.2", "t12", "m2"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if qs := w.queriesFor("m2"); len(qs) != 0 {
		t.Errorf("non-validating MTA issued queries: %v", qs)
	}
}

func TestPostDataValidatorInvisibleToProbes(t *testing.T) {
	w := newWorld(t)
	mta := w.startMTA(t, "m3", "10.0.0.3", Profile{
		ValidatesSPF: true, Phase: PostData, AcceptAnyUser: true,
	})
	if err := w.probe(t, "10.0.0.3", "t12", "m3"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	mta.Wait()
	if qs := w.queriesFor("m3"); len(qs) != 0 {
		t.Errorf("post-data validator visible to probe: %v", qs)
	}
	if mta.Stats().SPFChecks != 0 {
		t.Error("post-data validator ran a check without a message")
	}
}

func TestPostDataValidatorRunsAfterDelivery(t *testing.T) {
	w := newWorld(t)
	mta := w.startMTA(t, "m4", "10.0.0.4", Profile{
		ValidatesSPF: true, Phase: PostData, AcceptAnyUser: true,
	})
	// Deliver a complete message (the NotifyEmail path).
	c, err := smtp.Dial(context.Background(), w.fabric, "10.0.0.4:25")
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 5 * time.Second
	domain := "d0100." + strings.TrimSuffix(notifySuffix, ".")
	if err := c.Hello("mta.dns-lab.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("spf-test@" + domain); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt("operator@target.example"); err != nil {
		t.Fatal(err)
	}
	msg := "From: spf-test@" + domain + "\r\nTo: operator@target.example\r\nSubject: notice\r\n\r\nbody\r\n"
	if err := c.Data([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	_ = c.Quit()
	mta.Wait()
	found := false
	for _, q := range w.queriesFor("d0100") {
		if strings.HasPrefix(q, "TXT d0100.") {
			found = true
		}
	}
	if !found {
		t.Errorf("post-data validation did not fetch the policy: %v", w.queriesFor("d0100"))
	}
}

func TestSpamRejectingMTA(t *testing.T) {
	w := newWorld(t)
	w.startMTA(t, "m5", "10.0.0.5", Profile{
		ValidatesSPF: true, RejectProbe: true,
		RejectText: "5.7.1 Message rejected as spam", AcceptAnyUser: true,
	})
	err := w.probe(t, "10.0.0.5", "t12", "m5")
	if err == nil {
		t.Fatal("spam rejector accepted the probe")
	}
	if !strings.Contains(strings.ToLower(err.Error()), "spam") {
		t.Errorf("rejection text: %v", err)
	}
	if qs := w.queriesFor("m5"); len(qs) != 0 {
		t.Errorf("rejector still validated: %v", qs)
	}
}

func TestPostmasterWhitelisting(t *testing.T) {
	w := newWorld(t)
	// The MTA accepts only postmaster and whitelists it: the probe's
	// recipient ladder ends at postmaster and validation is skipped.
	w.startMTA(t, "m6", "10.0.0.6", Profile{
		ValidatesSPF: true, Phase: AtData, WhitelistPostmaster: true,
	})
	if err := w.probe(t, "10.0.0.6", "t12", "m6"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if qs := w.queriesFor("m6"); len(qs) != 0 {
		t.Errorf("whitelisting MTA validated postmaster mail: %v", qs)
	}

	// The same MTA validates when a named user is accepted.
	w2 := newWorld(t)
	w2.startMTA(t, "m7", "10.0.0.7", Profile{
		ValidatesSPF: true, Phase: AtData, WhitelistPostmaster: true,
		ValidUsers: []string{"michael"},
	})
	if err := w2.probe(t, "10.0.0.7", "t12", "m7"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if qs := w2.queriesFor("m7"); len(qs) == 0 {
		t.Error("named-recipient mail skipped validation")
	}
}

func TestRejectPostmaster(t *testing.T) {
	w := newWorld(t)
	w.startMTA(t, "m8", "10.0.0.8", Profile{ValidatesSPF: true, RejectPostmaster: true})
	err := w.probe(t, "10.0.0.8", "t12", "m8")
	smtpErr, ok := err.(*smtp.Error)
	if !ok || smtpErr.Code != 550 {
		t.Fatalf("probe should fail with 550: %v", err)
	}
}

func TestPartialSPFValidator(t *testing.T) {
	w := newWorld(t)
	w.startMTA(t, "m9", "10.0.0.9", Profile{
		ValidatesSPF: true, PartialSPF: true, Phase: AtMail, AcceptAnyUser: true,
	})
	// t01's policy needs follow-ups; a partial validator fetches only
	// the base TXT (§6.1's 690 domains).
	if err := w.probe(t, "10.0.0.9", "t01", "m9"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	qs := w.queriesFor("m9")
	if len(qs) != 1 || !strings.HasPrefix(qs[0], "TXT t01.m9.") {
		t.Errorf("partial validator queries: %v", qs)
	}
}

func TestHELOCheckingMTA(t *testing.T) {
	w := newWorld(t)
	mta := w.startMTA(t, "m10", "10.0.0.10", Profile{
		ValidatesSPF: true, ChecksHELO: true, Phase: AtMail, AcceptAnyUser: true,
	})
	// Probe with a HELO name under the test zone so the HELO lookup is
	// observable.
	c, err := smtp.Dial(context.Background(), w.fabric, "10.0.0.10:25")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	c.Timeout = 5 * time.Second
	helo := "helo.t03.m10." + strings.TrimSuffix(testSuffix, ".")
	if err := c.Hello(helo); err != nil {
		t.Fatal(err)
	}
	from := "spf-test@t03.m10." + strings.TrimSuffix(testSuffix, ".")
	if err := c.Mail(from); err != nil {
		t.Fatal(err)
	}
	if mta.Stats().HELOChecks != 1 {
		t.Errorf("HELO checks: %d", mta.Stats().HELOChecks)
	}
	// Both the HELO policy and the MAIL policy must have been fetched —
	// the paper found every HELO-checking MTA continued to MAIL.
	heloSeen, mailSeen := false, false
	for _, q := range w.queriesFor("m10") {
		if strings.HasPrefix(q, "TXT helo.t03.") {
			heloSeen = true
		}
		if strings.HasPrefix(q, "TXT t03.m10.") {
			mailSeen = true
		}
	}
	if !heloSeen || !mailSeen {
		t.Errorf("helo=%v mail=%v: %v", heloSeen, mailSeen, w.queriesFor("m10"))
	}
}

func TestEnforcingMTARejectsSpoof(t *testing.T) {
	w := newWorld(t)
	w.startMTA(t, "m11", "10.0.0.11", Profile{
		ValidatesSPF: true, Phase: AtMail, EnforceSPF: true, AcceptAnyUser: true,
	})
	c, err := smtp.Dial(context.Background(), w.fabric, "10.0.0.11:25")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	c.Timeout = 5 * time.Second
	if err := c.Hello("attacker.example"); err != nil {
		t.Fatal(err)
	}
	// The NotifyEmail domain authorizes only the real sender; the
	// probe client's fabric address is not it.
	domain := "d0200." + strings.TrimSuffix(notifySuffix, ".")
	err = c.Mail("spoofed@" + domain)
	smtpErr, ok := err.(*smtp.Error)
	if !ok || smtpErr.Code != 550 || !strings.Contains(smtpErr.Message, "SPF") {
		t.Fatalf("spoofed MAIL: %v", err)
	}
}

func TestFullValidationOnDeliveredSignedMessage(t *testing.T) {
	w := newWorld(t)
	mta := w.startMTA(t, "m12", "10.0.0.12", Profile{
		ValidatesSPF: true, ValidatesDKIM: true, ValidatesDMARC: true,
		Phase: AtData, AcceptAnyUser: true,
	})
	domain := "d0300." + strings.TrimSuffix(notifySuffix, ".")
	raw := "From: notifier <spf-test@" + domain + ">\r\n" +
		"To: operator@target.example\r\n" +
		"Subject: vulnerability notification\r\n" +
		"Date: Mon, 05 Oct 2020 10:00:00 +0000\r\n" +
		"Message-ID: <n1@" + domain + ">\r\n" +
		"\r\nDetails within.\r\n"
	signer := &dkim.Signer{Domain: domain, Selector: "exp", Key: worldRSAKey}
	signed, err := signer.Sign([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}

	deliver := func(dialer smtp.Dialer) {
		t.Helper()
		c, err := smtp.Dial(context.Background(), dialer, "10.0.0.12:25")
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 10 * time.Second
		if err := c.Hello("mta.dns-lab.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Mail("spf-test@" + domain); err != nil {
			t.Fatal(err)
		}
		if err := c.Rcpt("operator@target.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Data(signed); err != nil {
			t.Fatalf("delivery: %v", err)
		}
		_ = c.Quit()
	}
	deliver(w.fabric)

	st := mta.Stats()
	if st.SPFChecks != 1 || st.DKIMChecks != 1 || st.DMARCChecks != 1 {
		t.Errorf("checks: %+v", st)
	}
	if st.MessagesAccepted != 1 {
		t.Errorf("accepted: %d (DMARC should pass via DKIM+SPF)", st.MessagesAccepted)
	}

	// A second delivery from the address the policy authorizes: SPF,
	// DKIM and DMARC are each evaluated once more and the message is
	// accepted.
	deliver(w.fabric.BoundDialer(senderV4, netip.Addr{}))
	mta.Close()
	st = mta.Stats()
	if st.SPFChecks != 2 || st.DKIMChecks != 2 || st.DMARCChecks != 2 {
		t.Errorf("checks after the authorized delivery: %+v", st)
	}
	if st.MessagesAccepted != 2 {
		t.Errorf("accepted after the authorized delivery: %d", st.MessagesAccepted)
	}
	// All three lookups must appear in the log: SPF TXT, DKIM key,
	// DMARC policy.
	var spfSeen, dkimSeen, dmarcSeen bool
	for _, q := range w.queriesFor("d0300") {
		switch {
		case strings.HasPrefix(q, "TXT d0300."):
			spfSeen = true
		case strings.HasPrefix(q, "TXT exp._domainkey.d0300."):
			dkimSeen = true
		case strings.HasPrefix(q, "TXT _dmarc.d0300."):
			dmarcSeen = true
		}
	}
	if !spfSeen || !dkimSeen || !dmarcSeen {
		t.Errorf("spf=%v dkim=%v dmarc=%v: %v", spfSeen, dkimSeen, dmarcSeen, w.queriesFor("d0300"))
	}
}

// TestAuthenticationResultsStamping checks the SPF, DKIM and DMARC
// verdicts an enforcing MTA reaches, through what it does with the
// message: under the notify domain's p=reject policy an unsigned
// message passes DMARC only through an aligned SPF pass, so it is
// accepted from the authorized sender address and rejected from any
// other; a signed one passes through DKIM from either. A From naming a
// second author is checked for each (RFC 7489 §6.6.1), so an author
// whose domain's policy fails gets the message rejected even when the
// other author's domain passes.
func TestAuthenticationResultsStamping(t *testing.T) {
	w := newWorld(t)
	mta := w.startMTA(t, "m21", "10.0.0.21", Profile{
		ValidatesSPF: true, ValidatesDKIM: true, ValidatesDMARC: true,
		EnforceDMARC: true, Phase: AtData, AcceptAnyUser: true,
	})
	domain := "d0600." + strings.TrimSuffix(notifySuffix, ".")
	raw := []byte("From: spf-test@" + domain + "\r\nSubject: s\r\n" +
		"Date: Mon, 05 Oct 2020 10:00:00 +0000\r\n\r\nbody\r\n")
	signer := &dkim.Signer{Domain: domain, Selector: "exp", Key: worldRSAKey}
	signed, err := signer.Sign(raw)
	if err != nil {
		t.Fatal(err)
	}

	deliver := func(dialer smtp.Dialer, msg []byte) error {
		t.Helper()
		c, err := smtp.Dial(context.Background(), dialer, "10.0.0.21:25")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Quit()
		c.Timeout = 10 * time.Second
		if err := c.Hello("mta.dns-lab.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Mail("spf-test@" + domain); err != nil {
			t.Fatal(err)
		}
		if err := c.Rcpt("x@target.example"); err != nil {
			t.Fatal(err)
		}
		return c.Data(msg)
	}
	authorized := w.fabric.BoundDialer(senderV4, netip.Addr{})

	// SPF pass: the unsigned message from the authorized address.
	if err := deliver(authorized, raw); err != nil {
		t.Errorf("unsigned, authorized sender: %v", err)
	}
	// SPF fail: the same message from an address the policy does not list.
	err = deliver(w.fabric, raw)
	if se, ok := err.(*smtp.Error); !ok || se.Code != 550 {
		t.Errorf("unsigned, unauthorized sender: %v", err)
	}
	// DKIM pass: the signed message from the authorized address.
	if err := deliver(authorized, signed); err != nil {
		t.Errorf("signed, authorized sender: %v", err)
	}
	// Two authors: the spoofed one's domain fails its p=reject.
	twoAuthors := []byte("From: ceo@bank.example, spf-test@" + domain + "\r\nSubject: s\r\n\r\nbody\r\n")
	err = deliver(authorized, twoAuthors)
	if se, ok := err.(*smtp.Error); !ok || se.Code != 550 || !strings.Contains(se.Message, "bank.example") {
		t.Errorf("two authors, one spoofed: %v", err)
	}
	mta.Close()

	st := mta.Stats()
	if st.SPFChecks != 4 || st.DKIMChecks != 4 || st.DMARCChecks != 4 {
		t.Errorf("checks: %+v", st)
	}
	if st.MessagesAccepted != 2 || st.MessagesRejected != 2 {
		t.Errorf("accepted %d rejected %d", st.MessagesAccepted, st.MessagesRejected)
	}
}

func TestDMARCOnlyMTA(t *testing.T) {
	// The paper's "bewildering" 169 domains: DMARC lookups without SPF
	// or DKIM (§6.1).
	w := newWorld(t)
	mta := w.startMTA(t, "m13", "10.0.0.13", Profile{
		ValidatesDMARC: true, AcceptAnyUser: true,
	})
	domain := "d0400." + strings.TrimSuffix(notifySuffix, ".")
	c, err := smtp.Dial(context.Background(), w.fabric, "10.0.0.13:25")
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 10 * time.Second
	_ = c.Hello("mta.dns-lab.example")
	_ = c.Mail("spf-test@" + domain)
	_ = c.Rcpt("x@target.example")
	msg := "From: spf-test@" + domain + "\r\nSubject: s\r\n\r\nb\r\n"
	if err := c.Data([]byte(msg)); err != nil {
		// EnforceDMARC (implied by ValidatesDMARC) rejects: SPF/DKIM
		// were never checked so DMARC fails against p=reject.
		if se, ok := err.(*smtp.Error); !ok || se.Code != 550 {
			t.Fatalf("delivery: %v", err)
		}
	}
	_ = c.Quit()
	mta.Close()
	var dmarcSeen, spfSeen bool
	for _, q := range w.queriesFor("d0400") {
		if strings.HasPrefix(q, "TXT _dmarc.") {
			dmarcSeen = true
		}
		if q == "TXT d0400."+notifySuffix {
			spfSeen = true
		}
	}
	if !dmarcSeen || spfSeen {
		t.Errorf("dmarc=%v spf=%v: %v", dmarcSeen, spfSeen, w.queriesFor("d0400"))
	}
}

// TestIPv4OnlyResolverFailsIPv6Policy probes t10 on two v4-only MTAs.
// The follow-up name is served only at the IPv6 endpoint: the MTA
// whose resolver is IPv4-only never reaches it, while the dual-stack
// one retrieves it over IPv6, from its IPv4 address under 64:ff9b::/96.
func TestIPv4OnlyResolverFailsIPv6Policy(t *testing.T) {
	w := newWorld(t)
	p := Profile{ValidatesSPF: true, Phase: AtMail, AcceptAnyUser: true}
	v4only := p
	v4only.ResolverTransport = resolver.IPv4Only
	w.startMTA(t, "m14", "10.0.0.14", v4only)
	w.startMTA(t, "m15", "10.0.0.15", p)
	_ = w.probe(t, "10.0.0.14", "t10", "m14")
	_ = w.probe(t, "10.0.0.15", "t10", "m15")

	overV6 := map[string][]string{}
	for _, e := range w.log.Entries() {
		if e.OverIPv6 {
			overV6[e.MTAID] = append(overV6[e.MTAID], e.Remote)
		}
	}
	if got := overV6["m14"]; len(got) != 0 {
		t.Errorf("the IPv4-only resolver reached the IPv6 endpoint: %v", got)
	}
	if len(overV6["m15"]) == 0 {
		t.Fatalf("the dual-stack resolver never reached the IPv6 endpoint: %v", w.queriesFor("m15"))
	}
	for _, remote := range overV6["m15"] {
		if got := netip.MustParseAddrPort(remote).Addr(); got != netip.MustParseAddr("64:ff9b::a00:f") {
			t.Errorf("IPv6 query from %s, want the MTA's address under 64:ff9b::/96", got)
		}
	}

	// Through the resolver directly: the v6-only name fails over IPv4.
	res := resolver.New(resolver.Config{
		Server: w.dnsAddr, Server6: w.dnsAddr6, Transport: resolver.IPv4Only, Dialer: w.fabric,
	})
	if _, err := res.LookupTXT(context.Background(), "l1.t10.m14."+strings.TrimSuffix(testSuffix, ".")); err == nil {
		t.Error("IPv4-only resolver retrieved a v6-only policy")
	}
}

func TestProfileSampling(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	rates := PaperRates()
	const n = 20000
	var spfCount, dkimCount, dmarcCount, postData, parallel, rejectors int
	for i := 0; i < n; i++ {
		p := rates.Sample(rng)
		if p.ValidatesSPF {
			spfCount++
			if p.Phase == PostData {
				postData++
			}
			if p.SPFOptions.Prefetch {
				parallel++
			}
		}
		if p.ValidatesDKIM {
			dkimCount++
		}
		if p.ValidatesDMARC {
			dmarcCount++
		}
		if p.RejectProbe {
			rejectors++
		}
	}
	within := func(got int, base int, want, tol float64) bool {
		return math.Abs(float64(got)/float64(base)-want) < tol
	}
	// Table 4 margins: SPF 14056+6322+2156+169 = 22703 of 28806 ≈ 79%.
	if !within(spfCount, n, 0.788, 0.02) {
		t.Errorf("SPF rate %.3f", float64(spfCount)/n)
	}
	if !within(dkimCount, n, 0.757, 0.02) {
		t.Errorf("DKIM rate %.3f", float64(dkimCount)/n)
	}
	if !within(dmarcCount, n, 0.501, 0.02) {
		t.Errorf("DMARC rate %.3f", float64(dmarcCount)/n)
	}
	if !within(postData, spfCount, 0.17, 0.02) {
		t.Errorf("post-data rate %.3f", float64(postData)/float64(spfCount))
	}
	if !within(parallel, spfCount, 0.03, 0.01) {
		t.Errorf("parallel rate %.3f", float64(parallel)/float64(spfCount))
	}
	if !within(rejectors, n, 0.28, 0.02) {
		t.Errorf("rejector rate %.3f", float64(rejectors)/n)
	}
}

func TestSampleDeterminism(t *testing.T) {
	a := PaperRates().Sample(mrand.New(mrand.NewSource(7)))
	b := PaperRates().Sample(mrand.New(mrand.NewSource(7)))
	if a.ValidatesSPF != b.ValidatesSPF || a.Phase != b.Phase ||
		a.RejectProbe != b.RejectProbe || a.SPFOptions != b.SPFOptions {
		t.Error("sampling is not deterministic for equal seeds")
	}
}

func TestWeightedIndex(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[weightedIndex(rng, []float64{1, 2, 7})]++
	}
	if math.Abs(float64(counts[0])/30000-0.1) > 0.02 ||
		math.Abs(float64(counts[2])/30000-0.7) > 0.02 {
		t.Errorf("weighted distribution %v", counts)
	}
	if weightedIndex(rng, []float64{0, 0}) != 0 {
		t.Error("zero weights")
	}
}

func TestMTALifecycle(t *testing.T) {
	w := newWorld(t)
	m := New(Config{
		ID: "m-none", Fabric: w.fabric, DNSAddr: w.dnsAddr,
	})
	if err := m.Start(); err == nil {
		t.Error("MTA with no addresses started")
	}
	m2 := w.startMTA(t, "m15", "10.0.0.15", Profile{})
	m2.Close()
	m2.Close() // idempotent
	if m2.Profile().ValidatesSPF {
		t.Error("accessors")
	}
}

// TestAuthorDomains pins the From header shapes that decide which
// domain's DMARC policy a message answers to. The last four are the
// From-ambiguity shapes of "Composition Kills" (Chen, Paxson and Jiang,
// USENIX Security 2020): a display name or comment carrying a second
// address must not stand in for the author, a comment must not hide
// one, and two authors are each checked (RFC 7489 §6.6.1).
func TestAuthorDomains(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{" Alice <alice@Sender.Example>", []string{"sender.example"}},
		{"bob@example.com", []string{"example.com"}},
		{"no-address-here", []string{""}},
		{"trailing@", []string{""}},
		// An empty group parses cleanly but names no author.
		{"undisclosed:;", []string{""}},
		// net/mail refuses folding whitespace inside the angle brackets.
		{`"Quoted" <q@d.example >`, []string{""}},
		{`"x <a@evil.example>" <b@good.example>`, []string{"good.example"}},
		{`b@good.example (x@evil.example)`, []string{"good.example"}},
		{`(c <c@evil.example>) b@good.example`, []string{""}},
		{`a@evil.example, b@good.example, c@evil.example`, []string{"evil.example", "good.example"}},
	}
	for _, c := range cases {
		if got := authorDomains(c.in); !slices.Equal(got, c.want) {
			t.Errorf("authorDomains(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

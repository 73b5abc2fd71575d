package probe

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/dkim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/smtp"
)

var (
	keyOnce sync.Once
	rsaKey  *rsa.PrivateKey
)

func testKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		rsaKey, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			t.Fatal(err)
		}
	})
	return rsaKey
}

// scriptedMTA runs an smtp.Server with the given handler on the
// fabric at addr and records activity.
func scriptedMTA(t *testing.T, fabric *netsim.Fabric, addr string, h smtp.Handler) *smtp.Server {
	t.Helper()
	srv := &smtp.Server{Hostname: "scripted.example", Handler: h}
	ln, err := fabric.Handle(netip.AddrPortFrom(netip.MustParseAddr(addr), 25), srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	return srv
}

func TestProbeHappyPath(t *testing.T) {
	fabric := netsim.NewFabric()
	var mu sync.Mutex
	var mailFrom, helo string
	var sawMessage bool
	scriptedMTA(t, fabric, "10.1.0.1", smtp.Handler{
		OnMail: func(s *smtp.Session, from string) *smtp.Reply {
			mu.Lock()
			mailFrom, helo = from, s.Helo
			mu.Unlock()
			return nil
		},
		OnMessage: func(s *smtp.Session, msg []byte) *smtp.Reply {
			mu.Lock()
			sawMessage = true
			mu.Unlock()
			return nil
		},
	})
	c := &Client{
		Dialer: fabric, Suffix: "spf-test.dns-lab.example",
		HeloDomain: "probe.dns-lab.example", RecipientDomain: "target.example",
		Timeout: 3 * time.Second,
	}
	res := c.Probe(context.Background(), netip.MustParseAddr("10.1.0.1"), "m0001", "t12")
	if res.Stage != StageDone || res.Err != nil {
		t.Fatalf("probe: %+v", res)
	}
	if res.ReplyCode != 354 {
		t.Errorf("DATA reply %d", res.ReplyCode)
	}
	if res.Recipient != "michael@target.example" {
		t.Errorf("recipient %q (accept-all server takes the first guess)", res.Recipient)
	}
	mu.Lock()
	defer mu.Unlock()
	if mailFrom != "spf-test@t12.m0001.spf-test.dns-lab.example" {
		t.Errorf("MAIL from %q", mailFrom)
	}
	if helo != "probe.dns-lab.example" {
		t.Errorf("helo %q", helo)
	}
	if sawMessage {
		t.Error("probe delivered a message")
	}
}

func TestProbeRecipientLadder(t *testing.T) {
	fabric := netsim.NewFabric()
	var attempts []string
	var mu sync.Mutex
	scriptedMTA(t, fabric, "10.1.0.2", smtp.Handler{
		OnRcpt: func(s *smtp.Session, to string) *smtp.Reply {
			mu.Lock()
			attempts = append(attempts, smtp.LocalOf(to))
			mu.Unlock()
			if smtp.LocalOf(to) != "postmaster" {
				return smtp.ReplyNoSuchUser
			}
			return nil
		},
	})
	c := &Client{
		Dialer: fabric, Suffix: "spf-test.dns-lab.example",
		HeloDomain: "probe.dns-lab.example", RecipientDomain: "target.example",
		Timeout: 3 * time.Second,
	}
	res := c.Probe(context.Background(), netip.MustParseAddr("10.1.0.2"), "m0002", "t12")
	if res.Stage != StageDone {
		t.Fatalf("probe: %+v", res)
	}
	if res.Recipient != "postmaster@target.example" {
		t.Errorf("recipient %q", res.Recipient)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"michael", "john.smith", "support", "postmaster"}
	if len(attempts) != len(want) {
		t.Fatalf("attempts %v", attempts)
	}
	for i := range want {
		if attempts[i] != want[i] {
			t.Errorf("ladder order %v", attempts)
		}
	}
}

func TestProbeConnectRejection(t *testing.T) {
	fabric := netsim.NewFabric()
	scriptedMTA(t, fabric, "10.1.0.3", smtp.Handler{
		OnConnect: func(s *smtp.Session) *smtp.Reply {
			return &smtp.Reply{Code: 554, Text: "rejected: spam source"}
		},
	})
	c := &Client{Dialer: fabric, Suffix: "x.example", HeloDomain: "p.example",
		RecipientDomain: "t.example", Timeout: 3 * time.Second}
	res := c.Probe(context.Background(), netip.MustParseAddr("10.1.0.3"), "m0003", "t12")
	if res.Stage != StageConnect || !res.Rejected() {
		t.Fatalf("probe: %+v", res)
	}
	if !res.MentionsSpam() || res.MentionsBlacklist() {
		t.Errorf("classification: %+v", res)
	}
	if res.ReplyCode != 554 {
		t.Errorf("code %d", res.ReplyCode)
	}
}

func TestProbeUnreachable(t *testing.T) {
	fabric := netsim.NewFabric()
	c := &Client{Dialer: fabric, Suffix: "x.example", HeloDomain: "p.example",
		RecipientDomain: "t.example", Timeout: time.Second}
	res := c.Probe(context.Background(), netip.MustParseAddr("10.1.0.99"), "m0004", "t12")
	if res.Stage != StageConnect || res.Err == nil {
		t.Fatalf("probe: %+v", res)
	}
}

func TestProbeHeloSubstitution(t *testing.T) {
	fabric := netsim.NewFabric()
	var mu sync.Mutex
	helos := map[string]string{}
	scriptedMTA(t, fabric, "10.1.0.4", smtp.Handler{
		OnMail: func(s *smtp.Session, from string) *smtp.Reply {
			mu.Lock()
			// Key by test id from the From address.
			parts := strings.SplitN(smtp.DomainOf(from), ".", 2)
			helos[parts[0]] = s.Helo
			mu.Unlock()
			return nil
		},
	})
	c := &Client{
		Dialer: fabric, Suffix: "spf-test.dns-lab.example",
		HeloDomain: "probe.dns-lab.example", RecipientDomain: "t.example",
		HeloTestID: "t03", Timeout: 3 * time.Second,
	}
	addr := netip.MustParseAddr("10.1.0.4")
	c.Probe(context.Background(), addr, "m0005", "t12")
	c.Probe(context.Background(), addr, "m0005", "t03")
	mu.Lock()
	defer mu.Unlock()
	if helos["t12"] != "probe.dns-lab.example" {
		t.Errorf("t12 helo %q", helos["t12"])
	}
	if helos["t03"] != "helo.t03.m0005.spf-test.dns-lab.example" {
		t.Errorf("t03 helo %q", helos["t03"])
	}
}

func TestProbeSleepPacing(t *testing.T) {
	fabric := netsim.NewFabric()
	scriptedMTA(t, fabric, "10.1.0.6", smtp.Handler{})
	c := &Client{Dialer: fabric, Suffix: "x.example", HeloDomain: "p.example",
		RecipientDomain: "t.example", Sleep: 30 * time.Millisecond, Timeout: 3 * time.Second}
	start := time.Now()
	res := c.Probe(context.Background(), netip.MustParseAddr("10.1.0.6"), "m0007", "t12")
	if res.Stage != StageDone {
		t.Fatalf("probe: %+v", res)
	}
	// Three sleeps: before MAIL, RCPT, DATA.
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("probe finished in %v; sleeps not applied", elapsed)
	}
}

func TestSenderDelivery(t *testing.T) {
	fabric := netsim.NewFabric()
	var mu sync.Mutex
	var gotMsg []byte
	var gotFrom string
	scriptedMTA(t, fabric, "10.1.0.7", smtp.Handler{
		OnMessage: func(s *smtp.Session, msg []byte) *smtp.Reply {
			mu.Lock()
			gotMsg = append([]byte(nil), msg...)
			gotFrom = s.MailFrom
			mu.Unlock()
			return nil
		},
	})
	s := &Sender{
		Dialer: fabric, Suffix: "dsav-mail.dns-lab.example",
		HeloDomain: "mta.dns-lab.example",
		Signer:     &dkim.Signer{Selector: "exp", Key: testKey(t)},
		ReplyTo:    "research@dns-lab.example",
		Timeout:    3 * time.Second,
	}
	d := s.Send(context.Background(), "d0042", "operator@recipient.example",
		[]Target{{Addr4: netip.MustParseAddr("10.1.0.7")}},
		"vulnerability notice", "Dear operator,\nplease see details.\n")
	if !d.Delivered || d.Err != nil {
		t.Fatalf("delivery: %+v", d)
	}
	if d.AcceptedAt.IsZero() {
		t.Error("missing acceptance timestamp")
	}
	mu.Lock()
	defer mu.Unlock()
	if gotFrom != "spf-test@d0042.dsav-mail.dns-lab.example" {
		t.Errorf("envelope from %q", gotFrom)
	}
	text := string(gotMsg)
	if !strings.Contains(text, "DKIM-Signature:") {
		t.Error("message unsigned")
	}
	if !strings.Contains(text, "d=d0042.dsav-mail.dns-lab.example;") {
		t.Error("DKIM d= not the per-domain From domain")
	}
	if !strings.Contains(text, "Reply-To: <research@dns-lab.example>") {
		t.Error("Reply-To missing")
	}
	if !strings.Contains(text, "From: Network Measurement Study <spf-test@d0042.dsav-mail.dns-lab.example>") {
		t.Error("From header misaligned with envelope")
	}
}

func TestSenderFirstResponsiveMTA(t *testing.T) {
	fabric := netsim.NewFabric()
	// First target does not exist; second accepts.
	scriptedMTA(t, fabric, "10.1.0.9", smtp.Handler{})
	s := &Sender{Dialer: fabric, Suffix: "dsav-mail.dns-lab.example",
		HeloDomain: "mta.dns-lab.example", Timeout: time.Second}
	d := s.Send(context.Background(), "d0043", "x@y.example",
		[]Target{
			{Addr4: netip.MustParseAddr("10.1.0.8")},
			{Addr4: netip.MustParseAddr("10.1.0.9")},
		}, "s", "b")
	if !d.Delivered {
		t.Fatalf("delivery: %+v", d)
	}
	if d.MTAAddr.String() != "10.1.0.9" {
		t.Errorf("delivered to %s", d.MTAAddr)
	}
}

func TestSenderAllUnreachable(t *testing.T) {
	fabric := netsim.NewFabric()
	s := &Sender{Dialer: fabric, Suffix: "x.example", HeloDomain: "h.example",
		Timeout: time.Second}
	d := s.Send(context.Background(), "d0044", "x@y.example",
		[]Target{{Addr4: netip.MustParseAddr("10.1.0.10")}}, "s", "b")
	if d.Delivered || d.Err == nil {
		t.Fatalf("delivery: %+v", d)
	}
}

func TestSenderRejectedDelivery(t *testing.T) {
	fabric := netsim.NewFabric()
	scriptedMTA(t, fabric, "10.1.0.11", smtp.Handler{
		OnMail: func(s *smtp.Session, from string) *smtp.Reply {
			return &smtp.Reply{Code: 550, Text: "no"}
		},
	})
	s := &Sender{Dialer: fabric, Suffix: "x.example", HeloDomain: "h.example",
		Timeout: time.Second}
	d := s.Send(context.Background(), "d0045", "x@y.example",
		[]Target{{Addr4: netip.MustParseAddr("10.1.0.11")}}, "s", "b")
	if d.Delivered {
		t.Fatal("rejected delivery marked delivered")
	}
}

func TestFromAddress(t *testing.T) {
	c := &Client{Suffix: "spf-test.dns-lab.example."}
	if got := c.FromAddress("t05", "m0099"); got != "spf-test@t05.m0099.spf-test.dns-lab.example" {
		t.Errorf("FromAddress = %q", got)
	}
}

func TestProbeStopsWithinOneStepOnCancel(t *testing.T) {
	fabric := netsim.NewFabric()
	var mu sync.Mutex
	var sawMail bool
	scriptedMTA(t, fabric, "10.1.0.14", smtp.Handler{
		OnMail: func(s *smtp.Session, from string) *smtp.Reply {
			mu.Lock()
			sawMail = true
			mu.Unlock()
			return nil
		},
	})
	c := &Client{
		Dialer: fabric, Suffix: "x.example", HeloDomain: "h.example",
		RecipientDomain: "y.example",
		Sleep:           2 * time.Second, // paper pacing: 15 s between commands
		Timeout:         5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	res := c.Probe(ctx, netip.MustParseAddr("10.1.0.14"), "m1", "t01")
	elapsed := time.Since(start)

	if res.Err == nil || !strings.Contains(res.Err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled probe returned %+v", res)
	}
	// The cancel lands in the pre-MAIL sleep: the probe must abandon
	// the walk there instead of finishing EHLO→DATA (which would take
	// three full sleeps).
	if elapsed > time.Second {
		t.Errorf("cancelled probe took %v, want well under one sleep interval", elapsed)
	}
	if res.Stage != StageHelo {
		t.Errorf("probe reached stage %s, want abandonment after %s", res.Stage, StageHelo)
	}
	mu.Lock()
	defer mu.Unlock()
	if sawMail {
		t.Error("MTA saw MAIL FROM after cancellation")
	}
}

func TestProbeCancelledBeforeDial(t *testing.T) {
	fabric := netsim.NewFabric()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{Dialer: fabric, Suffix: "x.example", HeloDomain: "h.example"}
	res := c.Probe(ctx, netip.MustParseAddr("10.1.0.15"), "m1", "t01")
	if res.Stage != StageConnect || res.Err == nil {
		t.Fatalf("pre-cancelled probe: %+v", res)
	}
}

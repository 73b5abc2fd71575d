package smtp

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/netsim"
)

// startServer runs a Server over the netsim fabric, which hands it
// each connection as it does an MTA's, and returns the fabric plus the
// MTA's simulated address.
func startServer(t *testing.T, srv *Server) (*netsim.Fabric, string) {
	t.Helper()
	fabric := netsim.NewFabric()
	addr := netip.MustParseAddrPort("203.0.113.25:25")
	ln, err := fabric.Handle(addr, srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	return fabric, addr.String()
}

func dial(t *testing.T, fabric *netsim.Fabric, addr string) *Client {
	t.Helper()
	c, err := Dial(context.Background(), fabric, addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 3 * time.Second
	return c
}

func TestBasicDelivery(t *testing.T) {
	var (
		mu       sync.Mutex
		gotFrom  string
		gotTo    []string
		gotMsg   string
		gotIP    netip.Addr
		gotHelo  string
		usedEhlo bool
	)
	srv := &Server{
		Hostname: "mx.recipient.example",
		Handler: Handler{
			OnMessage: func(s *Session, msg []byte) *Reply {
				mu.Lock()
				defer mu.Unlock()
				gotFrom, gotTo, gotMsg = s.MailFrom, s.RcptTo, string(msg)
				gotIP, gotHelo, usedEhlo = s.ClientIP, s.Helo, s.Ehlo
				return nil
			},
		},
	}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("sender.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("alice@sender.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt("bob@recipient.example"); err != nil {
		t.Fatal(err)
	}
	msg := "Subject: hi\r\n\r\nbody line\r\n.leading dot\r\n"
	if err := c.Data([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if gotFrom != "alice@sender.example" {
		t.Errorf("MailFrom %q", gotFrom)
	}
	if len(gotTo) != 1 || gotTo[0] != "bob@recipient.example" {
		t.Errorf("RcptTo %v", gotTo)
	}
	if gotMsg != msg {
		t.Errorf("message %q, want %q", gotMsg, msg)
	}
	if gotHelo != "sender.example" || !usedEhlo {
		t.Errorf("helo %q ehlo=%v", gotHelo, usedEhlo)
	}
	// The server must see the probe client's synthetic fabric address.
	if !gotIP.Is4() || gotIP.String() != "198.18.0.1" {
		t.Errorf("client IP %s", gotIP)
	}
}

func TestProbeSequenceStopsBeforeContent(t *testing.T) {
	// The paper's probe: EHLO, MAIL, RCPT, DATA, then disconnect. The
	// server must never see a message.
	var messageSeen bool
	var dataSeen bool
	srv := &Server{
		Handler: Handler{
			OnData:    func(s *Session) *Reply { dataSeen = true; return nil },
			OnMessage: func(s *Session, msg []byte) *Reply { messageSeen = true; return nil },
		},
	}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("probe.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("spf-test@t01.m0001.spf-test.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt("postmaster@target.example"); err != nil {
		t.Fatal(err)
	}
	code, _, err := c.DataCommand()
	if err != nil {
		t.Fatal(err)
	}
	if code != 354 {
		t.Errorf("DATA reply %d", code)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if !dataSeen {
		t.Error("DATA hook not reached")
	}
	if messageSeen {
		t.Error("message was delivered despite pre-content disconnect")
	}
}

func TestHeloFallback(t *testing.T) {
	// A server that rejects EHLO forces the client down to HELO.
	helo := make(chan bool, 1)
	srv := &Server{
		Handler: Handler{
			OnHelo: func(s *Session) *Reply {
				if s.Ehlo {
					return &Reply{Code: 502, Text: "EHLO not supported"}
				}
				helo <- true
				return nil
			},
		},
	}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("old-client.example"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-helo:
	default:
		t.Error("client never fell back to HELO")
	}
}

func TestRejectionAtConnect(t *testing.T) {
	// 28% of NotifyMX MTAs rejected the probe citing spam/blacklists
	// before DATA (paper §6.2); the earliest point is the banner.
	srv := &Server{
		Handler: Handler{
			OnConnect: func(s *Session) *Reply {
				return &Reply{Code: 554, Text: "5.7.1 rejected: listed on spam blacklist"}
			},
		},
	}
	fabric, addr := startServer(t, srv)
	_, err := Dial(context.Background(), fabric, addr)
	if err == nil {
		t.Fatal("connect-rejected dial succeeded")
	}
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != 554 || !strings.Contains(serr.Message, "spam") {
		t.Errorf("error %v", err)
	}
}

func TestRecipientRejection(t *testing.T) {
	srv := &Server{
		Handler: Handler{
			OnRcpt: func(s *Session, to string) *Reply {
				if LocalOf(to) != "postmaster" {
					return ReplyNoSuchUser
				}
				return nil
			},
		},
	}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("probe.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("probe@test.example"); err != nil {
		t.Fatal(err)
	}
	// The paper's recipient-guessing ladder: named users fail,
	// postmaster succeeds.
	for _, user := range []string{"michael", "john.smith", "support"} {
		err := c.Rcpt(user + "@target.example")
		var serr *Error
		if !errors.As(err, &serr) || serr.Code != 550 {
			t.Errorf("RCPT %s: %v", user, err)
		}
	}
	if err := c.Rcpt("postmaster@target.example"); err != nil {
		t.Errorf("RCPT postmaster: %v", err)
	}
}

func TestMailRejectionClearsSender(t *testing.T) {
	srv := &Server{
		Handler: Handler{
			OnMail: func(s *Session, from string) *Reply {
				return &Reply{Code: 550, Text: "SPF fail"}
			},
		},
	}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("probe.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("spoofed@victim.example"); err == nil {
		t.Fatal("rejected MAIL succeeded")
	}
	// RCPT without an accepted MAIL must be a sequence error.
	err := c.Rcpt("user@target.example")
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != 503 {
		t.Errorf("RCPT after rejected MAIL: %v", err)
	}
}

func TestCommandSequenceEnforcement(t *testing.T) {
	srv := &Server{}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	// MAIL before HELO.
	_, _, err := c.Cmd("MAIL FROM:<x@example.com>")
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != 503 {
		t.Errorf("MAIL before HELO: %v", err)
	}
	// DATA before MAIL.
	if err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Cmd("DATA")
	if !errors.As(err, &serr) || serr.Code != 503 {
		t.Errorf("DATA before MAIL: %v", err)
	}
	// DATA with no accepted recipients.
	if err := c.Mail("x@example.com"); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Cmd("DATA")
	if !errors.As(err, &serr) || serr.Code != 554 {
		t.Errorf("DATA without RCPT: %v", err)
	}
}

func TestRsetNoopVrfyUnknown(t *testing.T) {
	srv := &Server{}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	if code, _, err := c.Cmd("NOOP"); err != nil || code != 250 {
		t.Errorf("NOOP: %d %v", code, err)
	}
	if code, _, err := c.Cmd("RSET"); err != nil || code != 250 {
		t.Errorf("RSET: %d %v", code, err)
	}
	if code, _, err := c.Cmd("VRFY someone"); err != nil || code != 252 {
		t.Errorf("VRFY: %d %v", code, err)
	}
	_, _, err := c.Cmd("BOGUS")
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != 502 {
		t.Errorf("unknown verb: %v", err)
	}
}

func TestEhloExtensions(t *testing.T) {
	srv := &Server{Extensions: []string{"8BITMIME", "SIZE 10485760"}}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	code, text, err := c.Cmd("EHLO client.example")
	if err != nil || code != 250 {
		t.Fatalf("EHLO: %d, %v", code, err)
	}
	if lines := strings.Split(text, "\n"); len(lines) != 3 || lines[1] != "8BITMIME" || lines[2] != "SIZE 10485760" {
		t.Errorf("EHLO reply lines %q, want the greeting and both extensions", lines)
	}
}

// TestDataRoundTrip sends each body through Client.Data to a Server and
// checks what OnMessage receives: line endings become CRLF, a leading
// dot survives the stuffing, a last line gains its CRLF, and an empty
// body arrives as one empty line.
func TestDataRoundTrip(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain\r\n", "plain\r\n"},
		{".leading\r\n", ".leading\r\n"},
		{"a\n.b\nc\n", "a\r\n.b\r\nc\r\n"},
		{"no trailing newline", "no trailing newline\r\n"},
		{"", "\r\n"},
	}
	var got []string
	srv := &Server{Handler: Handler{OnMessage: func(_ *Session, msg []byte) *Reply {
		got = append(got, string(msg))
		return nil
	}}}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	defer c.Abort()
	if err := c.Hello("sender.example"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if err := c.Mail("a@sender.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Rcpt("b@recipient.example"); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		if err := c.Data([]byte(tc.in)); err != nil {
			t.Fatalf("Data(%q): %v", tc.in, err)
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("Data(%q) delivered %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseAddress(t *testing.T) {
	cases := []struct {
		in   string
		addr string
		ok   bool
	}{
		{"<user@example.com>", "user@example.com", true},
		{" <user@example.com> SIZE=1000", "user@example.com", true},
		{"user@example.com", "user@example.com", true},
		{"user@example.com SIZE=5", "user@example.com", true},
		{"<>", "", true}, // null reverse-path
		{"<unterminated", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		addr, ok := ParseAddress(c.in)
		if addr != c.addr || ok != c.ok {
			t.Errorf("ParseAddress(%q) = %q, %v; want %q, %v", c.in, addr, ok, c.addr, c.ok)
		}
	}
}

func TestAddressHelpers(t *testing.T) {
	if DomainOf("User@Example.COM") != "example.com" {
		t.Error("DomainOf")
	}
	if DomainOf("no-at-sign") != "" || DomainOf("trailing@") != "" {
		t.Error("DomainOf edge cases")
	}
	if LocalOf("user@example.com") != "user" || LocalOf("bare") != "bare" {
		t.Error("LocalOf")
	}
}

func TestReplyFormatting(t *testing.T) {
	r := &Reply{Code: 250, Text: "first\nsecond\nlast"}
	want := "250-first\r\n250-second\r\n250 last\r\n"
	if got := string(r.appendWire(nil)); got != want {
		t.Errorf("appendWire = %q", got)
	}
	if got := string((&Reply{Code: 7, Text: "x"}).appendWire([]byte("> "))); got != "> 007 x\r\n" {
		t.Errorf("appendWire of a short code after a prefix = %q", got)
	}
	if !ReplyOK.Positive() || ReplyNoSuchUser.Positive() {
		t.Error("Positive misclassifies")
	}
	e := &Error{Code: 550, Message: "nope"}
	if !e.Permanent() || e.Temporary() {
		t.Error("550 classification")
	}
	e = &Error{Code: 421, Message: "later"}
	if e.Permanent() || !e.Temporary() {
		t.Error("421 classification")
	}
}

// TestSessionMeta: what one hook stores in Session.Meta, a later hook
// of the same session reads.
func TestSessionMeta(t *testing.T) {
	seen := make(chan any, 1)
	srv := &Server{
		Handler: Handler{
			OnMail: func(s *Session, from string) *Reply {
				s.Meta["spf"] = "pass"
				return nil
			},
			OnRcpt: func(s *Session, to string) *Reply {
				seen <- s.Meta["spf"]
				return nil
			},
		},
	}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("x.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("a@b.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt("x@y.example"); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "pass" {
		t.Errorf("OnRcpt read Meta[spf] = %v, want the value OnMail stored", got)
	}
	_ = c.Quit()
}

func TestConcurrentSessions(t *testing.T) {
	srv := &Server{}
	fabric, addr := startServer(t, srv)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(context.Background(), fabric, addr)
			if err != nil {
				errs <- err
				return
			}
			c.Timeout = 3 * time.Second
			if err := c.Hello("client.example"); err != nil {
				errs <- err
				return
			}
			if err := c.Mail("a@b.example"); err != nil {
				errs <- err
				return
			}
			_ = c.Quit()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRealSocketListenAndServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Hostname: "real.example"}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(context.Background(), nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	_ = c.Quit()
}

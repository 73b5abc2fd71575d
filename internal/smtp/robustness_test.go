package smtp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	netsmtp "net/smtp"
	"net/textproto"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/netsim"
)

// rawSession dials the server and returns the raw connection for
// protocol-level abuse.
func rawSession(t *testing.T, fabric *netsim.Fabric, addr string) (interface {
	Write(p []byte) (int, error)
	Read(p []byte) (int, error)
	Close() error
}, func(prefix string)) {
	t.Helper()
	conn, err := fabric.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	expect := func(prefix string) {
		t.Helper()
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !strings.HasPrefix(string(buf[:n]), prefix) {
			t.Fatalf("got %q, want prefix %q", buf[:n], prefix)
		}
	}
	return conn, expect
}

func TestServerSurvivesGarbage(t *testing.T) {
	srv := &Server{ReadTimeout: 2 * time.Second}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	// Binary garbage line.
	if _, err := conn.Write([]byte("\x00\xff\xfe binary trash\r\n")); err != nil {
		t.Fatal(err)
	}
	expect("502")
	// Empty-argument EHLO.
	_, _ = conn.Write([]byte("EHLO\r\n"))
	expect("501")
	// Malformed MAIL argument.
	_, _ = conn.Write([]byte("EHLO ok.example\r\n"))
	expect("250")
	_, _ = conn.Write([]byte("MAIL FROM:<unterminated\r\n"))
	expect("501")
	_, _ = conn.Write([]byte("MAIL bogus\r\n"))
	expect("501")
	// The session must still be usable.
	_, _ = conn.Write([]byte("MAIL FROM:<ok@example.com>\r\n"))
	expect("250")
}

func TestServerNullReversePath(t *testing.T) {
	srv := &Server{}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	_, _ = conn.Write([]byte("EHLO bounce.example\r\n"))
	expect("250")
	// Bounce messages use the null reverse-path.
	_, _ = conn.Write([]byte("MAIL FROM:<>\r\n"))
	expect("250")
	_, _ = conn.Write([]byte("RCPT TO:<postmaster@x.example>\r\n"))
	expect("250")
	_, _ = conn.Write([]byte("DATA\r\n"))
	expect("354")
	_, _ = conn.Write([]byte("Subject: bounce\r\n\r\nbody\r\n.\r\n"))
	expect("250")
}

// TestServerMessageSizeCap and TestDataLineTooLong drive the server
// with net/smtp, an SMTP client written independently of this package:
// a payload the server will not take is refused after its terminating
// dot (552 for the size cap, RFC 1870; 500 for an over-long text line,
// RFC 5321 §4.5.3.1.9), and the session goes on to deliver the next
// message.
func TestServerMessageSizeCap(t *testing.T) {
	line := strings.Repeat("spam and eggs ", 70) + "\r\n"
	refuseThenDeliver(t, strings.Repeat(line, maxMessageBytes/len(line)+1), 552)
}

func TestDataLineTooLong(t *testing.T) {
	refuseThenDeliver(t, "Subject: x\r\n\r\n"+strings.Repeat("x", maxDataLine+1)+"\r\n", 500)
}

// refuseThenDeliver sends body through net/smtp, expects it refused
// with code, then expects a second, small message on the same session
// to be delivered.
func refuseThenDeliver(t *testing.T, body string, code int) {
	t.Helper()
	var delivered []string
	srv := &Server{Handler: Handler{OnMessage: func(_ *Session, msg []byte) *Reply {
		delivered = append(delivered, string(msg))
		return nil
	}}}
	fabric, addr := startServer(t, srv)
	conn, err := fabric.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	c, err := netsmtp.NewClient(conn, "mx.example")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(body string) error {
		if err := c.Mail("a@b.example"); err != nil {
			return err
		}
		if err := c.Rcpt("x@y.example"); err != nil {
			return err
		}
		w, err := c.Data()
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, body); err != nil {
			return err
		}
		return w.Close()
	}
	var tpErr *textproto.Error
	if err := send(body); !errors.As(err, &tpErr) || tpErr.Code != code {
		t.Fatalf("refused payload: %v, want a %d reply", err, code)
	}
	if err := send("Subject: next\r\n\r\nbody\r\n"); err != nil {
		t.Fatalf("message after the refusal: %v", err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 1 || !strings.Contains(delivered[0], "Subject: next") {
		t.Errorf("delivered %d messages, want only the second", len(delivered))
	}
}

func TestServerDisconnectMidData(t *testing.T) {
	var sawMessage bool
	srv := &Server{
		ReadTimeout: time.Second,
		Handler: Handler{
			OnMessage: func(s *Session, msg []byte) *Reply { sawMessage = true; return nil },
		},
	}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	_, _ = conn.Write([]byte("EHLO x.example\r\nMAIL FROM:<a@b.c>\r\n"))
	expect("250")
	expect("250")
	_, _ = conn.Write([]byte("RCPT TO:<d@e.f>\r\nDATA\r\n"))
	expect("250")
	expect("354")
	// Send partial content, then vanish.
	_, _ = conn.Write([]byte("Subject: interrupted\r\npartial body"))
	conn.Close()
	srv.Close()
	if sawMessage {
		t.Error("truncated DATA delivered a message")
	}
}

func TestServerPipelinedCommands(t *testing.T) {
	// Clients may pipeline; the server must answer each command in
	// order.
	srv := &Server{}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	_, _ = conn.Write([]byte("EHLO pipeline.example\r\nMAIL FROM:<a@b.c>\r\nRCPT TO:<x@y.z>\r\nDATA\r\n"))
	expect("250") // EHLO
	expect("250") // MAIL
	expect("250") // RCPT
	expect("354") // DATA
}

func TestServerRsetClearsTransaction(t *testing.T) {
	srv := &Server{}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("x.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("a@b.c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Cmd("RSET"); err != nil {
		t.Fatal(err)
	}
	// After RSET, RCPT needs a fresh MAIL.
	err := c.Rcpt("x@y.z")
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != 503 {
		t.Errorf("RCPT after RSET: %v", err)
	}
}

func TestServerManySequentialTransactions(t *testing.T) {
	var accepted int
	srv := &Server{Handler: Handler{
		OnMessage: func(s *Session, msg []byte) *Reply { accepted++; return nil },
	}}
	fabric, addr := startServer(t, srv)
	c := dial(t, fabric, addr)
	if err := c.Hello("bulk.example"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Mail(fmt.Sprintf("sender%d@b.example", i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Rcpt("x@y.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Data([]byte(fmt.Sprintf("Subject: %d\r\n\r\nbody\r\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Quit()
	srv.Close()
	if accepted != 20 {
		t.Errorf("accepted %d of 20 messages", accepted)
	}
}

// TestClientReplyParsingEdgeCases pins how the client reads a reply to
// its first command, served as raw bytes before the peer closes. The
// reader is net/textproto's, and it is stricter than RFC 5321 §4.2 in
// two places: a bare code with no text is an error, and a final line
// whose code differs from the first line's continues the reply.
func TestClientReplyParsingEdgeCases(t *testing.T) {
	cases := []struct {
		name, reply string
		code        int
		text        string // the reply text, or a substring of the error
		fails       bool
	}{
		{"multiline EHLO", "250-mx.example\r\n250-PIPELINING\r\n250 8BITMIME\r\n", 250, "mx.example\nPIPELINING\n8BITMIME", false},
		{"empty text", "250 \r\n", 250, "", false},
		{"bare code", "250\r\n", 0, "short response", true},
		{"final code differs", "250-a\r\n251 b\r\n", 0, "EOF", true},
		{"non-numeric code", "xyz not a reply\r\n", 0, "invalid response code", true},
		{"no newline before EOF", "250 done", 250, "done", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fabric := netsim.NewFabric()
			ln, err := fabric.Handle(netip.MustParseAddrPort("10.2.0.1:25"), func(conn net.Conn) {
				defer conn.Close()
				_, _ = conn.Write([]byte("220 weird server\r\n"))
				buf := make([]byte, 256)
				_, _ = conn.Read(buf)
				_, _ = conn.Write([]byte(tc.reply))
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			c, err := Dial(context.Background(), fabric, "10.2.0.1:25")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Abort()
			c.Timeout = 2 * time.Second
			code, text, err := c.Cmd("EHLO probe.example")
			if tc.fails {
				if err == nil || !strings.HasPrefix(err.Error(), "smtp: reading reply: ") || !strings.Contains(err.Error(), tc.text) {
					t.Fatalf("Cmd = %d %q, %v; want a reading-reply error containing %q", code, text, err, tc.text)
				}
				return
			}
			if err != nil || code != tc.code || text != tc.text {
				t.Errorf("Cmd = %d %q, %v; want %d %q", code, text, err, tc.code, tc.text)
			}
		})
	}
}

func TestClientMultilineGreeting(t *testing.T) {
	fabric := netsim.NewFabric()
	ln, err := fabric.Handle(netip.MustParseAddrPort("10.2.0.2:25"), func(conn net.Conn) {
		defer conn.Close()
		_, _ = conn.Write([]byte("220-first line\r\n220-second line\r\n220 ready\r\n"))
		buf := make([]byte, 256)
		_, _ = conn.Read(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial(context.Background(), fabric, "10.2.0.2:25")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	if n := c.r.R.Buffered(); n != 0 {
		t.Errorf("%d bytes of the greeting left unread", n)
	}
}

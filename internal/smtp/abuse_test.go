package smtp

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestLineTooLongRejected verifies an over-long command line draws 500
// without desynchronizing the session: the next well-formed command
// still works.
func TestLineTooLongRejected(t *testing.T) {
	srv := &Server{ReadTimeout: 2 * time.Second}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	if _, err := conn.Write([]byte("EHLO " + strings.Repeat("x", maxLineBytes) + "\r\n")); err != nil {
		t.Fatal(err)
	}
	expect("500")
	_, _ = conn.Write([]byte("EHLO ok.example\r\n"))
	expect("250")
}

// TestErrorBudgetEvicts verifies the per-session error budget: a
// client that keeps drawing protocol errors is answered 421 and its
// connection closed.
func TestErrorBudgetEvicts(t *testing.T) {
	srv := &Server{ReadTimeout: 2 * time.Second}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	for range maxErrors {
		_, _ = conn.Write([]byte("BOGUS\r\n"))
		expect("502")
	}
	// The budget-exhausting error draws 421 instead of 502.
	_, _ = conn.Write([]byte("BOGUS\r\n"))
	expect("421")
	expectClosed(t, conn)
}

// expectClosed fails unless the server has closed conn: the next read
// returns an error instead of bytes.
func expectClosed(t *testing.T, conn interface{ Read([]byte) (int, error) }) {
	t.Helper()
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("read %q after 421; connection should be closed", buf[:n])
	}
}

// TestPolicyRejectionsDoNotChargeBudget verifies 5xx policy outcomes —
// the study's measurement signal — are not mistaken for abuse: a probe
// collecting many 550s must not be evicted.
func TestPolicyRejectionsDoNotChargeBudget(t *testing.T) {
	srv := &Server{
		ReadTimeout: 2 * time.Second,
		Handler: Handler{
			OnRcpt: func(s *Session, to string) *Reply { return ReplyNoSuchUser },
		},
	}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	_, _ = conn.Write([]byte("EHLO probe.example\r\n"))
	expect("250")
	_, _ = conn.Write([]byte("MAIL FROM:<p@probe.example>\r\n"))
	expect("250")
	for range 2 * maxErrors {
		_, _ = conn.Write([]byte("RCPT TO:<nobody@x.example>\r\n"))
		expect("550") // rejection, not eviction, every time
	}
	_, _ = conn.Write([]byte("NOOP\r\n"))
	expect("250")
}

// TestCommandBudgetEvicts bounds total commands per session so a
// well-formed but endless command stream cannot hold a connection
// forever: it is answered 421 and its connection closed.
func TestCommandBudgetEvicts(t *testing.T) {
	srv := &Server{ReadTimeout: 2 * time.Second}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	for range maxCommands {
		_, _ = conn.Write([]byte("NOOP\r\n"))
		expect("250")
	}
	_, _ = conn.Write([]byte("NOOP\r\n"))
	expect("421")
	expectClosed(t, conn)
}

// TestUnterminatedLineFloodEvicts streams bytes with no line ending —
// the slowloris-flavored flood — and expects eviction rather than
// unbounded buffering.
func TestUnterminatedLineFloodEvicts(t *testing.T) {
	srv := &Server{ReadTimeout: 2 * time.Second}
	fabric, addr := startServer(t, srv)
	conn, expect := rawSession(t, fabric, addr)
	expect("220")
	// Flood limit is 64× the line limit; send well past it.
	chunk := []byte(strings.Repeat("A", maxLineBytes))
	for range 80 {
		if _, err := conn.Write(chunk); err != nil {
			break // server may already have hung up
		}
	}
	expect("421")
}

// TestMaxConnsSheds verifies the connection cap: connections over the
// cap get 421 and a closed connection immediately, while admitted
// sessions keep working.
func TestMaxConnsSheds(t *testing.T) {
	srv := &Server{MaxConns: 2, ReadTimeout: 2 * time.Second}
	fabric, addr := startServer(t, srv)

	c1, expect1 := rawSession(t, fabric, addr)
	expect1("220")
	_, expect2 := rawSession(t, fabric, addr)
	expect2("220")

	// Third connection is over the cap.
	c3, expect3 := rawSession(t, fabric, addr)
	expect3("421")
	expectClosed(t, c3)

	// Admitted sessions are unaffected by the shed.
	_, _ = c1.Write([]byte("EHLO ok.example\r\n"))
	expect1("250")

	// Releasing a slot readmits new connections.
	_, _ = c1.Write([]byte("QUIT\r\n"))
	expect1("221")
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := fabric.DialContext(context.Background(), "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err == nil && strings.HasPrefix(string(buf[:n]), "220") {
			conn.Close()
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("freed connection slot was never readmitted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSlowPeer holds a session against three slow clients over an
// unbuffered pipe: one that never reads (the greeting's write blocks),
// one that never sends, and one that trickles a command one byte per
// second. Each session must end, freeing its MaxConns slot, within
// ReadTimeout of its last exchange starting.
func TestSlowPeer(t *testing.T) {
	const readTimeout = 2500 * time.Millisecond
	cases := []struct {
		name string
		peer func(conn net.Conn)
	}{
		{"never reads", func(net.Conn) {}},
		{"never sends", func(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) }},
		{"trickles", func(conn net.Conn) {
			go func() { _, _ = io.Copy(io.Discard, conn) }()
			for _, b := range []byte("EHLO slow.example\r\n") {
				if _, err := conn.Write([]byte{b}); err != nil {
					return // the server ended the session
				}
				time.Sleep(time.Second)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			srv := &Server{MaxConns: 1, ReadTimeout: readTimeout}
			server, client := net.Pipe()
			defer client.Close()
			go tc.peer(client)
			start := time.Now()
			ended := make(chan struct{})
			go func() {
				srv.ServeConn(server)
				close(ended)
			}()
			select {
			case <-ended:
			case <-time.After(2 * readTimeout):
				t.Fatalf("session still held %v after it started; ReadTimeout is %v", 2*readTimeout, readTimeout)
			}
			if took := time.Since(start); took > readTimeout+time.Second {
				t.Errorf("session ended after %v; ReadTimeout is %v", took, readTimeout)
			}
		})
	}
}

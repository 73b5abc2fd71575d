package smtp

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSessionAllocs pins what one probe dialogue — EHLO, MAIL, RCPT,
// DATA, disconnect — costs both ends together, fabric included. The
// paper's method is a million of these, so the session's scratch (the
// pipe's queues, four bufio buffers, one deadline timer per end) is
// what sets a campaign's allocation rate; with it recycled, and the
// replies appended straight into the server's writer, the dialogue
// costs little more than its strings (51 allocations and ≈3.0 KB on
// go1.24, amd64). Run by `make telemetry-alloc`.
func TestSessionAllocs(t *testing.T) {
	srv := &Server{Hostname: "mx.example"}
	fabric, addr := startServer(t, srv)
	ctx := context.Background()
	session := func() {
		c, err := Dial(ctx, fabric, addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 10 * time.Second
		if err := c.Hello("probe.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Mail("spf-test@t01.m000001.spf-test.example"); err != nil {
			t.Fatal(err)
		}
		if err := c.Rcpt("postmaster@target.example"); err != nil {
			t.Fatal(err)
		}
		if code, _, err := c.DataCommand(); err != nil || code != 354 {
			t.Fatalf("DATA = %d, %v", code, err)
		}
		c.Abort()
		waitIdle(srv)
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, session)
	runtime.ReadMemStats(&after)
	perSession := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("one probe dialogue: %.0f allocs, %d B", allocs, perSession)
	if raceEnabled {
		return // the pools leak by design there; the figures mean nothing
	}
	if allocs > 54 {
		t.Errorf("one probe dialogue: %.0f allocs, want ≤ 54", allocs)
	}
	if perSession > 3328 {
		t.Errorf("one probe dialogue allocates %d B, want ≤ 3.25 KB", perSession)
	}
}

// TestPooledReaderIsClean: a session that ends with bytes still unread
// in its reader — commands pipelined behind QUIT — must not leak them
// into whichever session draws that reader from the pool next.
func TestPooledReaderIsClean(t *testing.T) {
	var mails []string
	srv := &Server{Handler: Handler{
		OnMail: func(_ *Session, from string) *Reply { mails = append(mails, from); return nil },
	}}
	fabric, addr := startServer(t, srv)
	// Repeated so that, pool willing, several sessions do draw a reader
	// another one left dirty.
	for i := 0; i < 20; i++ {
		conn, expect := rawSession(t, fabric, addr)
		expect("220")
		_, _ = conn.Write([]byte("EHLO a.example\r\nQUIT\r\nMAIL FROM:<left@behind.example>\r\n"))
		expect("250")
		expect("221")
		waitIdle(srv)

		conn, expect = rawSession(t, fabric, addr)
		expect("220")
		_, _ = conn.Write([]byte("NOOP\r\n"))
		expect("250")
		_, _ = conn.Write([]byte("QUIT\r\n"))
		expect("221")
		waitIdle(srv)
	}
	if len(mails) != 0 {
		t.Errorf("a later session executed bytes an earlier one left unread: MAIL FROM %q", mails)
	}

	// The same at the pool's own boundary: what comes out is empty and
	// reads only from the connection it was attached to.
	br, bw := getBuffers(readWriter{strings.NewReader("MAIL FROM:<left@behind.example>\r\n")})
	if _, err := br.Peek(4); err != nil {
		t.Fatal(err)
	}
	_, _ = bw.WriteString("250 unsent")
	putBuffers(br, bw)
	if br.Buffered() != 0 || bw.Buffered() != 0 {
		t.Errorf("buffers went into the pool holding %d unread and %d unsent bytes", br.Buffered(), bw.Buffered())
	}
	br, bw = getBuffers(readWriter{strings.NewReader("NOOP\r\n")})
	defer putBuffers(br, bw)
	if line, err := br.ReadString('\n'); err != nil || line != "NOOP\r\n" {
		t.Errorf("recycled reader returned %q, %v; want its own connection's line", line, err)
	}
}

// waitIdle returns once srv holds no session. A session is forgotten
// after it has handed its buffers back, so waiting for that makes
// every session start from the same pool state.
func waitIdle(srv *Server) {
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			return
		}
		runtime.Gosched()
	}
}

// readWriter lends a strings.Reader the Write a connection has.
type readWriter struct{ *strings.Reader }

func (readWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestClientAbortIsIdempotent: probe.Sender defers Abort behind Quit,
// and Quit already gave the buffers back — a second return would put
// one buffer into two sessions' hands.
func TestClientAbortIsIdempotent(t *testing.T) {
	fabric, addr := startServer(t, &Server{})
	c := dial(t, fabric, addr)
	if err := c.Hello("sender.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	_ = c.Abort()
	_ = c.Abort()
	if _, _, err := c.Cmd("NOOP"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("command after Quit = %v; want net.ErrClosed", err)
	}

	// Two live clients must never share a buffer, however their
	// predecessors were closed.
	a, b := dial(t, fabric, addr), dial(t, fabric, addr)
	defer a.Abort()
	defer b.Abort()
	if a.r.R == b.r.R || a.w.W == b.w.W {
		t.Fatal("two open clients hold the same pooled buffer")
	}
	if err := a.Hello("a.example"); err != nil {
		t.Error(err)
	}
	if err := b.Hello("b.example"); err != nil {
		t.Error(err)
	}
}

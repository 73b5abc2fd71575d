package dns

import (
	"context"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/leaktest"
)

// panicOnHandler panics for one query name and echoes TXT otherwise —
// the shape of a responder bug that only one test's zone tickles.
func panicOnHandler(panicName, payload string) Handler {
	return HandlerFunc(func(w ResponseWriter, r *Request) {
		if strings.HasPrefix(r.Msg.Question().Name, panicName) {
			panic("handler bug: " + panicName)
		}
		echoTXTHandler(payload).ServeDNS(w, r)
	})
}

// TestServerRecoversHandlerPanic verifies a panicking handler takes
// down neither the server nor the query: the client gets SERVFAIL, the
// panic counter ticks, and the next query is served normally.
func TestServerRecoversHandlerPanic(t *testing.T) {
	var logged atomic.Uint64
	srv := &Server{
		Addr:    "127.0.0.1:0",
		Handler: panicOnHandler("boom.", "survived"),
		Logf:    func(format string, args ...any) { logged.Add(1) },
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	c := &Client{Timeout: 2 * time.Second}
	resp, err := c.Query(context.Background(), addr.String(), "boom.example", TypeTXT)
	if err != nil {
		t.Fatalf("query whose handler panicked: %v", err)
	}
	if resp.RCode != RCodeServerFailure {
		t.Errorf("panicked query got rcode %d, want SERVFAIL", resp.RCode)
	}
	if got := srv.Panics(); got != 1 {
		t.Errorf("Panics() = %d, want 1", got)
	}
	if logged.Load() == 0 {
		t.Error("recovered panic was not logged")
	}

	// The server must keep serving after the panic.
	resp, err = c.Query(context.Background(), addr.String(), "ok.example", TypeTXT)
	if err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "survived" {
		t.Errorf("payload after panic %q", txt.Joined())
	}
}

// TestServerRecoversPanicOverTCP runs the same recovery path on the
// TCP serving goroutine, where an escaped panic would also leak the
// per-connection goroutine.
func TestServerRecoversPanicOverTCP(t *testing.T) {
	defer leaktest.Check(t)()
	srv := &Server{Addr: "127.0.0.1:0", Handler: panicOnHandler("boom.", "tcp ok")}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	c := &Client{Timeout: 2 * time.Second}
	resp, err := c.ExchangeOver(context.Background(),
		new(Message).SetQuestion("boom.example", TypeTXT), "tcp", addr.String())
	if err != nil {
		t.Fatalf("tcp query whose handler panicked: %v", err)
	}
	if resp.RCode != RCodeServerFailure {
		t.Errorf("rcode %d, want SERVFAIL", resp.RCode)
	}
	resp, err = c.ExchangeOver(context.Background(),
		new(Message).SetQuestion("ok.example", TypeTXT), "tcp", addr.String())
	if err != nil {
		t.Fatalf("tcp query after panic: %v", err)
	}
	if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "tcp ok" {
		t.Errorf("payload %q", txt.Joined())
	}
}

// TestServerRateLimitsPerSource floods the server from one source and
// verifies the overflow is REFUSED (not dropped, not served), counted,
// and that the bucket refills. The client dials a fresh socket per
// query, so the flood arrives from many ports of one host: the source
// is the host.
func TestServerRateLimitsPerSource(t *testing.T) {
	srv := &Server{
		Addr:            "127.0.0.1:0",
		Handler:         echoTXTHandler("limited"),
		MaxQPSPerSource: 5,
		BurstPerSource:  3,
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	c := &Client{Timeout: 2 * time.Second}
	var served, refused int
	for i := 0; i < 12; i++ {
		resp, err := c.Query(context.Background(), addr.String(), "flood.example", TypeTXT)
		if err != nil {
			t.Fatalf("flood query %d: %v", i, err)
		}
		switch resp.RCode {
		case RCodeSuccess:
			served++
		case RCodeRefused:
			refused++
		default:
			t.Fatalf("flood query %d: rcode %d", i, resp.RCode)
		}
	}
	if refused == 0 {
		t.Fatalf("12 immediate queries at burst 3: none refused (served %d)", served)
	}
	if served < 3 {
		t.Errorf("burst 3 should admit at least 3 queries, served %d", served)
	}
	if got := srv.Refused(); got != uint64(refused) {
		t.Errorf("Refused() = %d, client saw %d refusals", got, refused)
	}

	// After a refill interval the source is served again.
	time.Sleep(400 * time.Millisecond) // 5 qps → 2 tokens
	resp, err := c.Query(context.Background(), addr.String(), "after-refill.example", TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeSuccess {
		t.Errorf("query after refill: rcode %d", resp.RCode)
	}
}

// TestRateLimiterBoundsSourceTable verifies the limiter's memory stays
// bounded under a spoofed-source flood.
func TestRateLimiterBoundsSourceTable(t *testing.T) {
	rl := NewRateLimiter(1, 1)
	now := time.Now()
	for i := 0; i < 3*rl.maxSources; i++ {
		rl.Allow(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), now)
	}
	if n := rl.Sources(); n > rl.maxSources {
		t.Errorf("source table grew to %d entries, cap is %d", n, rl.maxSources)
	}
}

// TestRateLimiterSourceIsTheHost pins the limiter's identity: an IPv4
// client seen v4-mapped (a dual-stack socket) and seen plain is one
// source with one bucket.
func TestRateLimiterSourceIsTheHost(t *testing.T) {
	rl := NewRateLimiter(1, 1)
	now := time.Now()
	if !rl.Allow(netip.MustParseAddr("::ffff:192.0.2.1"), now) {
		t.Fatal("first query of a fresh source refused")
	}
	if rl.Allow(netip.MustParseAddr("192.0.2.1"), now) {
		t.Error("plain IPv4 address got a bucket apart from its v4-mapped form")
	}
	if n := rl.Sources(); n != 1 {
		t.Errorf("tracking %d sources, want 1", n)
	}
}

// TestTCPServerSurvivesShortWrites drips a well-formed TCP query at the
// server one byte at a time — the maximally short write schedule — and
// expects a correct answer.
func TestTCPServerSurvivesShortWrites(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("drip ok"))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	q := new(Message).SetQuestion("drip.example", TypeTXT)
	q.ID = 77
	packed, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	framed := append([]byte{byte(len(packed) >> 8), byte(len(packed))}, packed...)
	for _, b := range framed {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatalf("dripping query: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := ReadTCPMessage(conn)
	if err != nil {
		t.Fatalf("reading dripped answer: %v", err)
	}
	var resp Message
	if err := resp.Unpack(payload); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 {
		t.Errorf("answer ID %d", resp.ID)
	}
	if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "drip ok" {
		t.Errorf("payload %q", txt.Joined())
	}
}

// TestTCPServerCleansUpMidMessageResets abuses the TCP path with
// connections cut mid-message — after the length prefix, mid-body, and
// mid-answer-read — and verifies the server leaks no goroutines and
// keeps serving.
func TestTCPServerCleansUpMidMessageResets(t *testing.T) {
	// Server shutdown is deferred after the leak check is installed, so
	// it runs first and the check sees the post-shutdown state.
	defer leaktest.Check(t)()
	srv := &Server{Addr: "127.0.0.1:0", Handler: echoTXTHandler("still serving")}
	laddr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	addr := laddr.String()

	q := new(Message).SetQuestion("cut.example", TypeTXT)
	packed, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}

	abuse := []func(c net.Conn){
		// Length prefix only, then an abortive close.
		func(c net.Conn) {
			c.Write([]byte{byte(len(packed) >> 8), byte(len(packed))})
		},
		// Prefix plus half the message body.
		func(c net.Conn) {
			c.Write([]byte{byte(len(packed) >> 8), byte(len(packed))})
			c.Write(packed[:len(packed)/2])
		},
		// Full query, but the client vanishes before reading the answer.
		func(c net.Conn) {
			WriteTCPMessage(c, packed)
		},
		// A huge length prefix backed by nothing.
		func(c net.Conn) {
			c.Write([]byte{0xff, 0xff})
		},
	}
	for i, f := range abuse {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("abuse %d: %v", i, err)
		}
		f(conn)
		// Abortive close: RST rather than FIN, so the server-side read
		// fails with a reset, not EOF.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		conn.Close()
	}

	// The abused server still answers over both transports.
	c := &Client{Timeout: 2 * time.Second}
	for _, network := range []string{"udp", "tcp"} {
		resp, err := c.ExchangeOver(context.Background(),
			new(Message).SetQuestion("health.example", TypeTXT), network, addr)
		if err != nil {
			t.Fatalf("%s query after abuse: %v", network, err)
		}
		if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "still serving" {
			t.Errorf("%s payload %q", network, txt.Joined())
		}
	}
}

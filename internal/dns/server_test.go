package dns

import (
	"bufio"
	"bytes"
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/trace"
)

// startTestServer runs a Server with the given handler on an ephemeral
// loopback port and registers cleanup.
func startTestServer(t *testing.T, h Handler) string {
	t.Helper()
	srv := &Server{Addr: "127.0.0.1:0", Handler: h}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("server start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr.String()
}

func echoTXTHandler(payload string) Handler {
	return HandlerFunc(func(w ResponseWriter, r *Request) {
		resp := new(Message).SetReply(r.Msg)
		resp.Authoritative = true
		resp.Answers = append(resp.Answers, RR{
			Name: r.Msg.Question().Name, Type: TypeTXT, Class: ClassINET, TTL: 60,
			Data: &TXT{Strings: SplitTXT(payload)},
		})
		_ = w.WriteMsg(resp)
	})
}

func TestClientServerUDP(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("v=spf1 -all"))
	c := &Client{Timeout: 2 * time.Second}
	resp, err := c.Query(context.Background(), addr, "example.com", TypeTXT)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("got %d answers", len(resp.Answers))
	}
	txt := resp.Answers[0].Data.(*TXT)
	if txt.Joined() != "v=spf1 -all" {
		t.Errorf("payload %q", txt.Joined())
	}
	if !resp.Authoritative {
		t.Error("AA flag lost")
	}
}

func TestClientServerTCP(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("tcp-only payload"))
	c := &Client{Timeout: 2 * time.Second}
	resp, err := c.ExchangeOver(context.Background(),
		new(Message).SetQuestion("example.com", TypeTXT), "tcp", addr)
	if err != nil {
		t.Fatalf("tcp query: %v", err)
	}
	if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "tcp-only payload" {
		t.Errorf("payload %q", txt.Joined())
	}
}

func TestTruncationForcesTCPFallback(t *testing.T) {
	// A response bigger than the advertised EDNS0 payload size must
	// arrive truncated over UDP and complete over TCP.
	big := strings.Repeat("a", 2*ednsUDPSize)
	addr := startTestServer(t, echoTXTHandler(big))

	c := &Client{Timeout: 2 * time.Second}
	q := new(Message).SetQuestion("example.com", TypeTXT)
	udpResp, err := c.ExchangeOver(context.Background(), q, "udp", addr)
	if err != nil {
		t.Fatalf("udp query: %v", err)
	}
	if !udpResp.Truncated {
		t.Fatal("oversized UDP response not truncated")
	}
	if len(udpResp.Answers) != 0 {
		t.Error("truncated response still carries answers")
	}

	full, err := c.Exchange(context.Background(),
		new(Message).SetQuestion("example.com", TypeTXT), addr)
	if err != nil {
		t.Fatalf("exchange with fallback: %v", err)
	}
	if full.Truncated {
		t.Error("TCP retry still truncated")
	}
	if txt := full.Answers[0].Data.(*TXT); txt.Joined() != big {
		t.Error("TCP retry payload mismatch")
	}
}

func TestEDNSAvoidsTruncation(t *testing.T) {
	big := strings.Repeat("a", 900)
	addr := startTestServer(t, echoTXTHandler(big))
	c := &Client{Timeout: 2 * time.Second, DisableTCPFallback: true}
	resp, err := c.Exchange(context.Background(),
		new(Message).SetQuestion("example.com", TypeTXT), addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("EDNS-advertised query still truncated under 1232 octets")
	}
}

func TestServerConcurrentQueries(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("concurrent"))
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Timeout: 3 * time.Second}
			_, err := c.Query(context.Background(), addr, "example.com", TypeTXT)
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

func TestServerDoubleStart(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0", Handler: echoTXTHandler("x")}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if _, err := srv.Start(); err != ErrServerStarted {
		t.Errorf("second Start: got %v, want ErrServerStarted", err)
	}
}

func TestServerRequiresHandler(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0"}
	if _, err := srv.Start(); err == nil {
		t.Error("Start without handler succeeded")
	}
}

func TestServerShutdownIdempotent(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0", Handler: echoTXTHandler("x")}
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Shutdown on an unstarted server must be a no-op.
	if err := (&Server{}).Shutdown(ctx); err != nil {
		t.Errorf("Shutdown of unstarted server: %v", err)
	}
}

// TestShutdownAnswersInFlightUDP pins Shutdown's order: a handler still
// answering a UDP query when Shutdown starts gets its answer out, and
// Shutdown waits for it and returns nil.
func TestShutdownAnswersInFlightUDP(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	echo := echoTXTHandler("late answer")
	srv := &Server{Addr: "127.0.0.1:0", Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
		close(entered)
		<-gate
		echo.ServeDNS(w, r)
	})}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		c := &Client{Timeout: 2 * time.Second}
		_, err := c.ExchangeOver(context.Background(),
			new(Message).SetQuestion("example.com", TypeTXT), "udp", addr.String())
		answered <- err
	}()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	// Shutdown closes s.shutdown and stops the listeners under s.mu; once
	// the channel is closed and the lock is free it is waiting on the
	// handler.
	for !srv.closing() {
		time.Sleep(time.Millisecond)
	}
	srv.mu.Lock()
	srv.mu.Unlock()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v while a handler was in flight", err)
	default:
	}
	close(gate)
	if err := <-answered; err != nil {
		t.Errorf("in-flight query lost to Shutdown: %v", err)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestShutdownDeliversDelayedAnswer is the sibling for an answer the
// handler deferred with WriteMsgAfter: when Shutdown starts it waits on
// a timer, not a handler, and still goes out before Shutdown returns.
func TestShutdownDeliversDelayedAnswer(t *testing.T) {
	handled := make(chan struct{})
	srv := &Server{Addr: "127.0.0.1:0", Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
		resp := GetMsg().SetReply(r.Msg)
		_ = w.WriteMsgAfter(resp, 200*time.Millisecond)
		PutMsg(resp)
		close(handled)
	})}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		c := &Client{Timeout: 2 * time.Second}
		_, err := c.ExchangeOver(context.Background(),
			new(Message).SetQuestion("example.com", TypeTXT), "udp", addr.String())
		answered <- err
	}()
	<-handled
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-answered; err != nil {
		t.Errorf("delayed answer lost to Shutdown: %v", err)
	}
}

// TestDelayedAnswerEndsSpanWhenSent pins where a deferred answer's
// query ends: the dns.serve span and the serve-latency histogram both
// cover the delay, over either transport.
func TestDelayedAnswerEndsSpanWhenSent(t *testing.T) {
	const delay = 100 * time.Millisecond
	for _, network := range []string{"udp", "tcp"} {
		t.Run(network, func(t *testing.T) {
			var out bytes.Buffer // read only after Close stops the exporter
			tr := trace.New(trace.Config{SampleRate: 1, Output: &out})
			srv := &Server{Addr: "127.0.0.1:0", Tracer: tr, Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
				resp := GetMsg().SetReply(r.Msg)
				_ = w.WriteMsgAfter(resp, delay)
				PutMsg(resp)
			})}
			addr, err := srv.Start()
			if err != nil {
				t.Fatal(err)
			}
			c := &Client{Timeout: 2 * time.Second}
			start := time.Now()
			if _, err := c.ExchangeOver(context.Background(),
				new(Message).SetQuestion("late.example", TypeTXT), network, addr.String()); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < delay {
				t.Errorf("answer arrived after %v, want >= %v", elapsed, delay)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if h := srv.metrics.serve.Snapshot(); h.Count != 1 || h.Sum < delay.Seconds() {
				t.Errorf("serve histogram count %d sum %vs, want 1 observation >= %v", h.Count, h.Sum, delay)
			}
			var spans int
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				rec, err := trace.ParseRecord(sc.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if rec.Name != "dns.serve" {
					continue
				}
				spans++
				if rec.DurUS < delay.Microseconds() {
					t.Errorf("dns.serve span lasted %dus, want >= %v", rec.DurUS, delay)
				}
				if got := rec.Attr("transport"); got != network {
					t.Errorf("span transport %q, want %q", got, network)
				}
			}
			if spans != 1 {
				t.Errorf("exported %d dns.serve spans, want 1", spans)
			}
		})
	}
}

func TestRequestMetadata(t *testing.T) {
	// Request messages are pooled, so the handler must extract what it
	// needs during ServeDNS rather than retaining r.Msg.
	type meta struct {
		transport string
		remote    netip.AddrPort
		remoteStr string
		received  time.Time
		question  string
	}
	got := make(chan meta, 1)
	addr := startTestServer(t, HandlerFunc(func(w ResponseWriter, r *Request) {
		select {
		case got <- meta{
			transport: r.Transport,
			remote:    r.RemoteAddr,
			remoteStr: r.RemoteString(),
			received:  r.Received,
			question:  r.Msg.Question().Name,
		}:
		default:
		}
		resp := new(Message).SetReply(r.Msg)
		_ = w.WriteMsg(resp)
	}))
	c := &Client{Timeout: 2 * time.Second}
	before := time.Now()
	if _, err := c.Query(context.Background(), addr, "meta.example.com", TypeA); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.transport != "udp" {
		t.Errorf("transport %q", r.transport)
	}
	if !r.remote.IsValid() {
		t.Error("missing remote address")
	} else if r.remoteStr != r.remote.String() {
		t.Errorf("RemoteString %q, want %q", r.remoteStr, r.remote.String())
	}
	if r.received.Before(before.Add(-time.Second)) {
		t.Error("implausible received timestamp")
	}
	if r.question != "meta.example.com." {
		t.Errorf("question %q", r.question)
	}
}

func TestClientQueryA(t *testing.T) {
	addr := startTestServer(t, HandlerFunc(func(w ResponseWriter, r *Request) {
		resp := new(Message).SetReply(r.Msg)
		q := r.Msg.Question()
		switch q.Type {
		case TypeA:
			resp.Answers = append(resp.Answers, RR{Name: q.Name, Type: TypeA,
				Class: ClassINET, TTL: 60, Data: &A{Addr: netip.MustParseAddr("192.0.2.7")}})
		case TypeAAAA:
			resp.Answers = append(resp.Answers, RR{Name: q.Name, Type: TypeAAAA,
				Class: ClassINET, TTL: 60, Data: &AAAA{Addr: netip.MustParseAddr("2001:db8::7")}})
		default:
			resp.RCode = RCodeNameError
		}
		_ = w.WriteMsg(resp)
	}))
	c := &Client{Timeout: 2 * time.Second}
	ctx := context.Background()
	a, err := c.Query(ctx, addr, "host.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a.Answers[0].Data.(*A).Addr.String() != "192.0.2.7" {
		t.Error("A answer mismatch")
	}
	aaaa, err := c.Query(ctx, addr, "host.example.com", TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if aaaa.Answers[0].Data.(*AAAA).Addr.String() != "2001:db8::7" {
		t.Error("AAAA answer mismatch")
	}
	nx, err := c.Query(ctx, addr, "host.example.com", TypeMX)
	if err != nil {
		t.Fatal(err)
	}
	if nx.RCode != RCodeNameError {
		t.Errorf("rcode %s, want NXDOMAIN", nx.RCode)
	}
}

func TestClientTimeout(t *testing.T) {
	// A server that never responds must yield a timeout error.
	addr := startTestServer(t, HandlerFunc(func(w ResponseWriter, r *Request) {}))
	c := &Client{Timeout: 150 * time.Millisecond}
	start := time.Now()
	_, err := c.Query(context.Background(), addr, "silent.example.com", TypeA)
	if err == nil {
		t.Fatal("query against silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestClientCancellation(t *testing.T) {
	// Cancelling the context ends an exchange with a silent server at
	// once, long before the client's own timeout.
	addr := startTestServer(t, HandlerFunc(func(w ResponseWriter, r *Request) {}))
	c := &Client{Timeout: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if _, err := c.Query(ctx, addr, "silent.example.com", TypeA); err == nil {
		t.Fatal("query against silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled exchange took %v", elapsed)
	}
}

func TestTCPMessageFraming(t *testing.T) {
	var buf strings.Builder
	payload := []byte("hello-dns")
	if err := WriteTCPMessage(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCPMessage(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("framing round trip: %q", got)
	}
	if err := WriteTCPMessage(&strings.Builder{}, make([]byte, 70000)); err == nil {
		t.Error("oversized TCP message accepted")
	}
	if _, err := ReadTCPMessage(strings.NewReader("\x00")); err == nil {
		t.Error("truncated length prefix accepted")
	}
}

package resolver

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// flakyUpstream is a real-socket DNS server that misbehaves on demand:
// it ignores the first ignoreN UDP queries, and its TCP endpoint cuts
// the first cutN connections mid-message (a short read for the
// client). After the misbehaviour budget is spent it answers properly.
type flakyUpstream struct {
	t        *testing.T
	pc       net.PacketConn
	ln       net.Listener
	ignoreN  int32 // UDP queries to ignore
	truncUDP bool  // answer UDP with TC=1 to force the TCP path
	cutN     int32 // TCP connections to cut after the length prefix
	udpSeen  atomic.Int32
	tcpSeen  atomic.Int32
}

func startFlakyUpstream(t *testing.T, ignoreN int32, truncUDP bool, cutN int32) *flakyUpstream {
	t.Helper()
	// UDP and TCP share one port. The ephemeral UDP port's TCP twin can
	// be taken by another test process, so retry with a fresh UDP
	// socket a bounded number of times, as dns.Server.Start does.
	var pc net.PacketConn
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		if pc, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if ln, err = net.Listen("tcp", pc.LocalAddr().String()); err == nil {
			break
		}
		pc.Close()
		if attempt >= 16 {
			t.Fatal(err)
		}
	}
	u := &flakyUpstream{t: t, pc: pc, ln: ln, ignoreN: ignoreN, truncUDP: truncUDP, cutN: cutN}
	go u.serveUDP()
	go u.serveTCP()
	t.Cleanup(func() {
		pc.Close()
		ln.Close()
	})
	return u
}

func (u *flakyUpstream) addr() string { return u.pc.LocalAddr().String() }

// answer builds a one-TXT reply to the packed query in buf.
func (u *flakyUpstream) answer(buf []byte, truncated bool) []byte {
	var q dns.Message
	if err := q.Unpack(buf); err != nil {
		return nil
	}
	resp := new(dns.Message).SetReply(&q)
	resp.Authoritative = true
	if truncated {
		resp.Truncated = true
	} else {
		resp.Answers = append(resp.Answers, dns.RR{
			Name: q.Question().Name, Type: dns.TypeTXT, Class: dns.ClassINET, TTL: 60,
			Data: &dns.TXT{Strings: []string{"v=spf1 -all"}},
		})
	}
	packed, err := resp.AppendPack(nil)
	if err != nil {
		return nil
	}
	return packed
}

func (u *flakyUpstream) serveUDP() {
	buf := make([]byte, 4096)
	for {
		n, raddr, err := u.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		if u.udpSeen.Add(1) <= u.ignoreN {
			continue // swallowed: the client sees a timeout
		}
		if resp := u.answer(buf[:n], u.truncUDP); resp != nil {
			_, _ = u.pc.WriteTo(resp, raddr)
		}
	}
}

func (u *flakyUpstream) serveTCP() {
	for {
		conn, err := u.ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			payload, err := dns.ReadTCPMessage(c)
			if err != nil {
				return
			}
			if u.tcpSeen.Add(1) <= u.cutN {
				// Promise a full answer, deliver two bytes, vanish:
				// the client's framed read dies mid-message.
				_, _ = c.Write([]byte{0x00, 0x40, 0xde, 0xad})
				return
			}
			if resp := u.answer(payload, false); resp != nil {
				_ = dns.WriteTCPMessage(c, resp)
			}
		}(conn)
	}
}

// TestRetryConvergesAfterTimeouts verifies a query that times out
// against a live-but-mute upstream is re-sent and eventually answered
// on the last attempt the retry budget allows.
func TestRetryConvergesAfterTimeouts(t *testing.T) {
	u := startFlakyUpstream(t, 2, false, 0)
	r := New(Config{
		Server:  u.addr(),
		Timeout: 300 * time.Millisecond,
	})
	txts, err := r.LookupTXT(context.Background(), "retry.example")
	if err != nil {
		t.Fatalf("lookup against upstream that ignores 2 queries: %v", err)
	}
	if len(txts) != 1 || txts[0] != "v=spf1 -all" {
		t.Errorf("payload %v", txts)
	}
	if got := u.udpSeen.Load(); got != 1+maxRetries {
		t.Errorf("upstream saw %d queries, want %d (1 + %d retries)", got, 1+maxRetries, maxRetries)
	}
}

// TestRetryCapExhausted verifies the retry budget is honored: against
// a permanently mute upstream the lookup fails after exactly
// 1 + maxRetries attempts.
func TestRetryCapExhausted(t *testing.T) {
	u := startFlakyUpstream(t, 1<<30, false, 0)
	r := New(Config{
		Server:  u.addr(),
		Timeout: 150 * time.Millisecond,
	})
	_, err := r.LookupTXT(context.Background(), "dead.example")
	if err == nil {
		t.Fatal("lookup against mute upstream succeeded")
	}
	if got := u.udpSeen.Load(); got != 1+maxRetries {
		t.Errorf("upstream saw %d queries, want %d (1 + %d retries)", got, 1+maxRetries, maxRetries)
	}
}

// TestRetryOnShortTCPRead drives the truncation→TCP path against an
// upstream whose TCP endpoint dies mid-message on the first
// connection: the short read must be retried, not surfaced.
func TestRetryOnShortTCPRead(t *testing.T) {
	u := startFlakyUpstream(t, 0, true, 1)
	r := New(Config{
		Server:  u.addr(),
		Timeout: time.Second,
	})
	txts, err := r.LookupTXT(context.Background(), "tcp-cut.example")
	if err != nil {
		t.Fatalf("lookup across mid-message TCP cut: %v", err)
	}
	if len(txts) != 1 || txts[0] != "v=spf1 -all" {
		t.Errorf("payload %v", txts)
	}
	if got := u.tcpSeen.Load(); got != 2 {
		t.Errorf("upstream saw %d TCP connections, want 2 (one retry)", got)
	}
}

// TestRetryNotTriggeredByServerFailure verifies RCODE failures are
// terminal for the exchange: SERVFAIL is the server's answer, not a
// transport fault, and re-asking will not change it.
func TestRetryNotTriggeredByServerFailure(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	var queries atomic.Int32
	go func() {
		buf := make([]byte, 4096)
		for {
			n, raddr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			queries.Add(1)
			var q dns.Message
			if err := q.Unpack(buf[:n]); err != nil {
				continue
			}
			resp := new(dns.Message).SetReply(&q)
			resp.RCode = dns.RCodeServerFailure
			packed, _ := resp.AppendPack(nil)
			_, _ = pc.WriteTo(packed, raddr)
		}
	}()

	r := New(Config{
		Server:  pc.LocalAddr().String(),
		Timeout: time.Second,
	})
	_, err = r.LookupTXT(context.Background(), "servfail.example")
	if err == nil {
		t.Fatal("SERVFAIL lookup succeeded")
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ServerError", err)
	}
	if got := queries.Load(); got != 1 {
		t.Errorf("upstream saw %d queries for SERVFAIL, want 1 (no retries)", got)
	}
}

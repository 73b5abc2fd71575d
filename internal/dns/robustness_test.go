package dns

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// TestServerIgnoresGarbagePackets sends raw junk at the UDP socket and
// verifies the server neither crashes nor answers, then still serves a
// well-formed query.
func TestServerIgnoresGarbagePackets(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("still alive"))
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, junk := range [][]byte{
		{},
		{0x01},
		[]byte(strings.Repeat("\xff", 600)),
		{0, 1, 0x80, 0}, // response bit set: must be dropped
	} {
		if len(junk) > 0 {
			if _, err := conn.Write(junk); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 512)
	if n, err := conn.Read(buf); err == nil {
		t.Errorf("server answered garbage with %d bytes", n)
	}

	c := &Client{Timeout: 2 * time.Second}
	resp, err := c.Query(context.Background(), addr, "after-garbage.example", TypeTXT)
	if err != nil {
		t.Fatalf("query after garbage: %v", err)
	}
	if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "still alive" {
		t.Errorf("payload %q", txt.Joined())
	}
}

// TestServerIgnoresResponses verifies a packet with QR=1 (a response,
// possibly reflected) is never answered — a reflection-loop guard.
func TestServerIgnoresResponses(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("x"))
	reply := new(Message).SetQuestion("loop.example", TypeTXT)
	reply.Response = true
	reply.ID = 99
	packed, err := reply.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(packed); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 512)
	if n, err := conn.Read(buf); err == nil {
		t.Errorf("server answered a response packet with %d bytes", n)
	}
}

// TestTCPGarbageConnection opens TCP connections that violate framing
// and verifies the server closes them without harm.
func TestTCPGarbageConnection(t *testing.T) {
	addr := startTestServer(t, echoTXTHandler("tcp alive"))
	// Connection that sends a length prefix and nothing else.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte{0x40, 0x00}) // promises 16 KiB, delivers none
	conn.Close()

	// Connection that sends framed garbage.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTCPMessage(conn2, []byte("this is not dns")); err != nil {
		t.Fatal(err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 64)
	if _, err := conn2.Read(buf); err == nil {
		t.Error("framed garbage got a response")
	}
	conn2.Close()

	// The server still answers real TCP queries.
	c := &Client{Timeout: 2 * time.Second}
	resp, err := c.ExchangeOver(context.Background(),
		new(Message).SetQuestion("x.example", TypeTXT), "tcp", addr)
	if err != nil {
		t.Fatalf("tcp query after abuse: %v", err)
	}
	if txt := resp.Answers[0].Data.(*TXT); txt.Joined() != "tcp alive" {
		t.Errorf("payload %q", txt.Joined())
	}
}

// TestClientRejectsMismatchedID fabricates a spoofed answer with the
// wrong transaction ID.
func TestClientRejectsMismatchedID(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 1024)
		n, raddr, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		var q Message
		if err := q.Unpack(buf[:n]); err != nil {
			return
		}
		resp := new(Message).SetReply(&q)
		resp.ID ^= 0xFFFF // wrong ID: an off-path spoof
		packed, _ := resp.AppendPack(nil)
		_, _ = pc.WriteTo(packed, raddr)
	}()
	c := &Client{Timeout: 500 * time.Millisecond}
	_, err = c.Query(context.Background(), pc.LocalAddr().String(), "spoofed.example", TypeA)
	if err == nil {
		t.Fatal("spoofed-ID response accepted")
	}
	if err != ErrIDMismatch && !strings.Contains(err.Error(), "ID") {
		// The read may also just time out after rejecting; either is fine
		// as long as the answer is not accepted.
		t.Logf("rejection surfaced as: %v", err)
	}
}

// TestClientRejectsNonResponse verifies a query packet echoed back
// (QR=0) is not treated as an answer.
func TestClientRejectsNonResponse(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 1024)
		n, raddr, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		_, _ = pc.WriteTo(buf[:n], raddr) // pure echo: still a query
	}()
	c := &Client{Timeout: 500 * time.Millisecond}
	_, err = c.Query(context.Background(), pc.LocalAddr().String(), "echo.example", TypeA)
	if err != ErrNotReply {
		t.Fatalf("echoed query: %v, want ErrNotReply", err)
	}
}

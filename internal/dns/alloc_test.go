package dns

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// The serving hot path promises allocation-free encode and (for repeat
// queries into a pooled message) allocation-free decode. These tests
// pin that contract so a regression shows up as a test failure, not
// just a drifting benchmark number.

func TestAppendPackZeroAlloc(t *testing.T) {
	msg := new(Message).SetQuestion("t01.m000001.spf-test.dns-lab.example.", TypeTXT)
	msg.Answers = append(msg.Answers, RR{
		Name: msg.Question().Name, Type: TypeTXT, Class: ClassINET, TTL: 60,
		Data: &TXT{Strings: []string{"v=spf1 ip4:192.0.2.0/24 ?all"}},
	})
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = msg.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendPack into reused buffer: %v allocs/op, want 0", allocs)
	}
}

func TestAppendPackMatchesPackAtOffset(t *testing.T) {
	msg := sampleMessage()
	want, err := msg.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Encoding after existing bytes (the TCP writer reserves a 2-octet
	// length prefix) must produce the same message bytes: compression
	// offsets are message-relative, not buffer-relative.
	prefix := []byte{0xAB, 0xCD}
	got, err := msg.AppendPack(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], prefix) {
		t.Error("AppendPack clobbered existing buffer bytes")
	}
	if !bytes.Equal(got[2:], want) {
		t.Error("AppendPack at offset differs from Pack")
	}
}

func TestPooledUnpackZeroAlloc(t *testing.T) {
	packed, err := new(Message).SetQuestion("t01.m000001.spf-test.dns-lab.example.", TypeTXT).AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := GetMsg()
	defer PutMsg(msg)
	// Repeat unpacks of the same query reuse the pooled message's
	// question backing and previous name via the wire-match hint.
	allocs := testing.AllocsPerRun(100, func() {
		if err := msg.Unpack(packed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("repeat Unpack into pooled message: %v allocs/op, want 0", allocs)
	}
	if msg.Question().Name != "t01.m000001.spf-test.dns-lab.example." {
		t.Errorf("hint-path unpack corrupted question: %q", msg.Question().Name)
	}
}

func TestSetReplyReusesQuestionBacking(t *testing.T) {
	req := new(Message).SetQuestion("example.com.", TypeTXT)
	resp := new(Message)
	resp.Questions = append(resp.Questions, Question{Name: "stale.", Type: TypeA, Class: ClassINET})
	before := &resp.Questions[0]
	resp.SetReply(req)
	if &resp.Questions[0] != before {
		t.Error("SetReply reallocated the question backing array")
	}
	if resp.Question().Name != "example.com." {
		t.Errorf("SetReply question: %q", resp.Question().Name)
	}
	allocs := testing.AllocsPerRun(100, func() { resp.SetReply(req) })
	if allocs != 0 {
		t.Errorf("SetReply with sufficient capacity: %v allocs/op, want 0", allocs)
	}
}

func TestCanonicalNameFastPath(t *testing.T) {
	name := "already.canonical.example."
	if got := CanonicalName(name); got != name {
		t.Fatalf("CanonicalName(%q) = %q", name, got)
	}
	allocs := testing.AllocsPerRun(100, func() { _ = CanonicalName(name) })
	if allocs != 0 {
		t.Errorf("CanonicalName on canonical input: %v allocs/op, want 0", allocs)
	}
	// The slow path still canonicalizes.
	if got := CanonicalName("MiXeD.Example"); got != "mixed.example." {
		t.Errorf("slow path: %q", got)
	}
}

// TestUnpackFromReusedBuffer pins what lets Client.ExchangeOver and the
// server unpack from a pooled packet buffer: the Message keeps no byte
// of its input, so overwriting the buffer afterwards changes nothing —
// and the records owned by the name that was asked share the question's
// string instead of each rebuilding it.
func TestUnpackFromReusedBuffer(t *testing.T) {
	want := sampleMessage()
	packed, err := want.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	pktp := pktPool.Get().(*[]byte)
	n := copy(*pktp, packed)
	var got Message
	if err := got.Unpack((*pktp)[:n]); err != nil {
		t.Fatal(err)
	}
	clear(*pktp)
	pktPool.Put(pktp)
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("message changed after its buffer was reused:\n got %v\nwant %v", &got, want)
	}

	qname := unsafe.StringData(got.Question().Name)
	shared := 0
	for _, rr := range append(got.Answers, got.Authority...) {
		if rr.Name == got.Question().Name {
			if unsafe.StringData(rr.Name) != qname {
				t.Errorf("%s record owned by the question name carries its own copy of it", rr.Type)
			}
			shared++
		}
	}
	if shared != 4 {
		t.Fatalf("sample message has %d records owned by its question name, want 4", shared)
	}
}

// nopWriter discards responses, for driving a handler in-process.
type nopWriter struct{}

func (nopWriter) WriteMsg(*Message) error                     { return nil }
func (nopWriter) WriteMsgAfter(*Message, time.Duration) error { return nil }

// TestServeUDPAllocs pins the UDP readers' budget over loopback: the
// endpoint adds no allocation per query to what its handler makes, and
// one, the rendered address, only when the handler asks RemoteString.
func TestServeUDPAllocs(t *testing.T) {
	var mu sync.Mutex
	resp := new(Message)
	handler := func(render bool) Handler {
		return HandlerFunc(func(w ResponseWriter, r *Request) {
			if render {
				_ = r.RemoteString()
			}
			mu.Lock()
			defer mu.Unlock()
			_ = w.WriteMsg(resp.SetReply(r.Msg))
		})
	}
	query := new(Message).SetQuestion("t01.m000001.spf-test.dns-lab.example.", TypeTXT)
	packed, err := query.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	req, silent := &Request{Msg: query, Transport: "udp"}, handler(false)
	own := testing.AllocsPerRun(100, func() { silent.ServeDNS(nopWriter{}, req) })

	for _, tc := range []struct {
		name   string
		render bool
		budget float64
	}{
		{"silent", false, own},
		{"RemoteString", true, own + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &Server{Addr: "127.0.0.1:0", Handler: handler(tc.render)}
			addr, err := srv.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(time.Minute))
			buf := make([]byte, maxUDPQuery)
			exchange := func() {
				if _, err := conn.Write(packed); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Read(buf); err != nil {
					t.Fatal(err)
				}
			}
			for range 32 { // every reader grows its buffers once
				exchange()
			}
			if allocs := testing.AllocsPerRun(200, exchange); allocs > tc.budget {
				t.Errorf("%v allocs per query over loopback, want <= %v (handler alone: %v)", allocs, tc.budget, own)
			}
		})
	}
}

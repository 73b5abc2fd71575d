package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// discardSink measures log-entry construction (the attribution strings,
// the rendered remote address) without the slice-growth noise of an
// in-memory QueryLog.
type discardSink struct{}

func (discardSink) Append(LogEntry) {}

// benchWriter packs responses the way the transport endpoints do —
// AppendPack into a buffer reused across requests — without a socket.
type benchWriter struct {
	buf []byte
}

func (w *benchWriter) WriteMsg(m *dns.Message) error {
	b, err := m.AppendPack(w.buf[:0])
	if err != nil {
		return err
	}
	w.buf = b
	return nil
}

// WriteMsgAfter packs at once: the benchmark measures the work, not
// the shaped wait.
func (w *benchWriter) WriteMsgAfter(m *dns.Message, _ time.Duration) error {
	return w.WriteMsg(m)
}

func benchZone() *Zone {
	return &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t01": ResponderFunc(func(q *Query) Response {
				return Response{Records: []dns.RR{
					TXTRecord(q.Name, "v=spf1 ip4:192.0.2.0/24 ?all", 60),
				}}
			}),
		},
	}
}

// benchPackets pre-packs n query variants rotating over distinct MTA
// ids, so the hot path sees realistic name diversity rather than one
// memoizable query.
func benchPackets(b *testing.B, n int) [][]byte {
	b.Helper()
	pkts := make([][]byte, n)
	for i := range pkts {
		q := new(dns.Message).SetQuestion(fmt.Sprintf("t01.m%06d.%s", i, testSuffix), dns.TypeTXT)
		q.ID = uint16(i + 1)
		raw, err := q.AppendPack(nil)
		if err != nil {
			b.Fatal(err)
		}
		pkts[i] = raw
	}
	return pkts
}

// BenchmarkServeHotPath measures the query serving path. The "direct"
// variant drives the handler in-process — unpack into a pooled message,
// attribute, synthesize, pack into a reused buffer — isolating the
// allocations this package controls. The "udp" variant exchanges real
// packets over loopback, so it includes the endpoint's read/dispatch
// path (but also scheduler and syscall noise). Its end-to-end figure is
// the `authdns-serve` workload.
func BenchmarkServeHotPath(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		srv := &Server{Zones: []*Zone{benchZone()}, Log: discardSink{}}
		srv.init()
		handler := srv.handler(false)
		pkts := benchPackets(b, 64)
		w := &benchWriter{}
		remote := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 53535)
		req := &dns.Request{RemoteAddr: remote, Transport: "udp", Received: time.Now()}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg := dns.GetMsg()
			if err := msg.Unpack(pkts[i%len(pkts)]); err != nil {
				b.Fatal(err)
			}
			req.Msg = msg
			handler.ServeDNS(w, req)
			dns.PutMsg(msg)
		}
	})

	b.Run("udp", func(b *testing.B) {
		srv := &Server{Zones: []*Zone{benchZone()}, Log: discardSink{}}
		addr, err := srv.Start()
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		conn, err := net.Dial("udp", addr.String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(time.Minute))
		pkts := benchPackets(b, 64)
		resp := make([]byte, 4096)

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Write(pkts[i%len(pkts)]); err != nil {
				b.Fatal(err)
			}
			if _, err := conn.Read(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLogCodec measures the per-record codec in isolation:
// encode into a reused buffer, decode with a reused parser. These are
// the units the analysis ingest pipeline multiplies by millions of
// records: `authdns-serve` encodes, `log-ingest` decodes.
func BenchmarkLogCodec(b *testing.B) {
	e := LogEntry{
		Time:      time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC),
		Name:      "x.t07.m000042.spf-test.dns-lab.example.",
		Type:      dns.TypeTXT,
		TestID:    "t07",
		MTAID:     "m000042",
		Rest:      []string{"l1"},
		Transport: "udp",
		OverIPv6:  true,
		Remote:    "198.51.100.7:53",
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendLogJSON(buf[:0], e)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("decode", func(b *testing.B) {
		line := AppendLogJSON(nil, e)
		var p logLineParser
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.parse(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParForEachLogJSON measures analysis ingest throughput over
// an in-memory log at fixed worker counts (fixed, rather than
// GOMAXPROCS-derived, so benchmark names are stable across machines).
// The `log-ingest` workload runs the same decode over a WAL stream.
func BenchmarkParForEachLogJSON(b *testing.B) {
	var (
		buf  []byte
		base = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	)
	for i := 0; i < 50000; i++ {
		buf = AppendLogJSON(buf, LogEntry{
			Time:      base.Add(time.Duration(i) * time.Millisecond),
			Name:      fmt.Sprintf("x.t%02d.m%06d.spf-test.dns-lab.example.", i%39, i),
			Type:      dns.TypeTXT,
			TestID:    fmt.Sprintf("t%02d", i%39),
			MTAID:     fmt.Sprintf("m%06d", i),
			Transport: "udp",
			Remote:    "198.51.100.7:53",
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := ParForEachLogJSONOrdered(bytes.NewReader(buf), workers, func(LogEntry) error {
					n++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n != 50000 {
					b.Fatalf("decoded %d entries, want 50000", n)
				}
			}
		})
	}
}

package dnsserver

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// TestResponderPanicRecovery verifies a panicking responder is
// contained: the query gets SERVFAIL, the panic is counted and logged
// with (test, MTA) attribution, and other responders keep working.
func TestResponderPanicRecovery(t *testing.T) {
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"tboom": ResponderFunc(func(q *Query) Response {
				panic("synthesis bug for " + q.TestID)
			}),
			"tok": ResponderFunc(func(q *Query) Response {
				return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 ?all", 60)}}
			}),
		},
	}
	var mu sync.Mutex
	var logged []string
	srv := &Server{
		Zones: []*Zone{zone},
		Log:   &QueryLog{},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, format)
		},
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	c := &dns.Client{Timeout: 3 * time.Second}
	resp, err := c.Query(context.Background(), addr.String(), "tboom.m0007."+testSuffix, dns.TypeTXT)
	if err != nil {
		t.Fatalf("query with panicking responder: %v", err)
	}
	if resp.RCode != dns.RCodeServerFailure {
		t.Errorf("rcode %d, want SERVFAIL", resp.RCode)
	}
	if got := srv.Panics(); got != 1 {
		t.Errorf("Panics() = %d, want 1", got)
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n == 0 {
		t.Error("responder panic was not logged")
	}

	// The healthy responder is unaffected.
	payload := txtPayload(t, queryTXT(t, addr.String(), "tok.m0007."+testSuffix))
	if payload != "v=spf1 ?all" {
		t.Errorf("healthy responder after panic: %q", payload)
	}
}

// stallSink is a Sink whose Append blocks until released — a stalled
// disk from the serving path's point of view.
type stallSink struct {
	mu      sync.Mutex
	entries []LogEntry
	gate    chan struct{}
}

func (s *stallSink) Append(e LogEntry) {
	<-s.gate
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
}

func (s *stallSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// TestAsyncLogNeverBlocksAndAccounts drives an AsyncLog over a stalled
// sink: appends must return immediately, overflow must be counted, and
// after the stall clears every entry must be either delivered or
// accounted for in Dropped.
func TestAsyncLogNeverBlocksAndAccounts(t *testing.T) {
	sink := &stallSink{gate: make(chan struct{})}
	al := NewAsyncLog(sink, 4)

	const total = 100
	start := time.Now()
	for i := 0; i < total; i++ {
		al.Append(LogEntry{Name: "q.example.", TestID: "t01"})
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("100 appends against a stalled sink took %v; Append must not block", took)
	}
	if al.Dropped() == 0 {
		t.Fatal("stalled sink with buffer 4 dropped nothing out of 100 appends")
	}

	close(sink.gate) // disk recovers
	al.Close()       // flushes the buffer

	delivered := uint64(sink.len())
	if delivered+al.Dropped() != al.Appended() {
		t.Errorf("accounting broken: delivered %d + dropped %d != appended %d",
			delivered, al.Dropped(), al.Appended())
	}
	if al.Appended() != total {
		t.Errorf("Appended() = %d, want %d", al.Appended(), total)
	}
}

// TestServerWithAsyncLogAccounting runs a real server whose query log
// drains slowly and verifies the acceptance invariant: every query is
// either in the log or in the dropped counter — none vanish.
func TestServerWithAsyncLogAccounting(t *testing.T) {
	inner := &QueryLog{}
	slow := &slowSink{inner: inner, delay: 2 * time.Millisecond}
	al := NewAsyncLog(slow, 2)
	zone := &Zone{
		Suffix: testSuffix,
		Responders: map[string]Responder{
			"t01": ResponderFunc(func(q *Query) Response {
				return Response{Records: []dns.RR{TXTRecord(q.Name, "v=spf1 ?all", 60)}}
			}),
		},
	}
	srv := &Server{Zones: []*Zone{zone}, Log: al}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}

	const queries = 40
	c := &dns.Client{Timeout: 3 * time.Second}
	for i := 0; i < queries; i++ {
		if _, err := c.Query(context.Background(), addr.String(), "t01.m0001."+testSuffix, dns.TypeTXT); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // stop appends, then close the log
	al.Close()

	delivered := uint64(inner.Len())
	if al.Appended() != queries {
		t.Errorf("Appended() = %d, want %d (one per query)", al.Appended(), queries)
	}
	if delivered+al.Dropped() != al.Appended() {
		t.Errorf("lost log entries: delivered %d + dropped %d != appended %d",
			delivered, al.Dropped(), al.Appended())
	}
	t.Logf("delivered %d, dropped %d of %d queries", delivered, al.Dropped(), queries)
}

// slowSink delays each delivery — a slow but live disk.
type slowSink struct {
	inner Sink
	delay time.Duration
}

func (s *slowSink) Append(e LogEntry) {
	time.Sleep(s.delay)
	s.inner.Append(e)
}

// TestWriteJSONLines checks the plain-JSONL writer emits one JSON
// object per line with the attribution fields intact.
func TestWriteJSONLines(t *testing.T) {
	var buf bytes.Buffer
	var ql QueryLog
	ql.Append(LogEntry{Name: "l1.t01.m0042." + testSuffix, TestID: "t01", MTAID: "m0042", Rest: []string{"l1"}})
	ql.Append(LogEntry{Name: "t02.m0001." + testSuffix, TestID: "t02", MTAID: "m0001"})
	if err := ql.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"t01"`) || !strings.Contains(lines[0], `"m0042"`) {
		t.Errorf("first line lacks attribution: %s", lines[0])
	}
}

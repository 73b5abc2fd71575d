package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/trace"
	"sendervalid/internal/wal"
)

// writeSpanWAL writes records through the same WAL framing the
// -trace-file flag uses, one framed record per span.
func writeSpanWAL(t *testing.T, path string, recs []trace.Record) {
	t.Helper()
	w, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	for _, r := range recs {
		buf = trace.AppendRecordJSON(buf[:0], r)
		if _, err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func spanRec(traceID, spanID, parent, name string, start time.Time, dur time.Duration) trace.Record {
	return trace.Record{
		Trace: traceID, Span: spanID, Parent: parent, Name: name,
		Start: start, DurUS: dur.Microseconds(),
	}
}

// TestLoadSpansTornTail pins crash recovery for the span stream: a
// trace file that lost bytes mid-record at a crash still yields every
// intact span, with no undecodable lines surfacing (the WAL framing
// absorbs the torn tail before the JSONL layer sees it).
func TestLoadSpansTornTail(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, spanRec(
			strings.Repeat("a", 31)+string(rune('0'+i)),
			strings.Repeat("b", 15)+string(rune('0'+i)),
			"", "spf.check_host", base.Add(time.Duration(i)*time.Second), time.Millisecond))
	}
	path := filepath.Join(t.TempDir(), "spans.wal")
	writeSpanWAL(t, path, recs)

	// Sanity: the intact file round-trips completely.
	got, bad, st, err := loadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 || len(got) != len(recs) {
		t.Fatalf("intact file: %d records, %d bad; want %d, 0", len(got), bad, len(recs))
	}
	var warning strings.Builder
	if warnTorn(&warning, "trace file", st); warning.Len() != 0 {
		t.Fatalf("intact file warned: %s", warning.String())
	}

	// Tear the tail mid-record, as a crash between write and flush
	// would: the last record loses half its bytes.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-40); err != nil {
		t.Fatal(err)
	}

	got, bad, st, err = loadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loss is not silent: the same warning a torn query log gets.
	warnTorn(&warning, "trace file", st)
	if want := fmt.Sprintf("WARNING: %d bytes of torn/corrupt WAL tail skipped", st.DroppedBytes); st.DroppedBytes == 0 ||
		!strings.Contains(warning.String(), want) || !strings.Contains(warning.String(), "trace file") {
		t.Errorf("torn span file: stats %+v, warning %q; want %q", st, warning.String(), want)
	}
	if bad != 0 {
		t.Errorf("torn tail leaked %d undecodable lines through the WAL framing", bad)
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("torn file salvaged %d records, want %d", len(got), len(recs)-1)
	}
	for i, r := range got {
		if r.Trace != recs[i].Trace || r.Span != recs[i].Span {
			t.Errorf("salvaged record %d is %s/%s, want %s/%s",
				i, r.Trace, r.Span, recs[i].Trace, recs[i].Span)
		}
	}
}

// TestSpanStreamRoundTrip pins the span stream end to end now that both
// sides are encoding/json: every record shape the exporter writes
// (parent, why, err, attrs, strings that need escaping) comes
// back from loadSpans identical, and so does a foreign line with
// reordered keys and interior whitespace.
func TestSpanStreamRoundTrip(t *testing.T) {
	when := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	base := spanRec(strings.Repeat("a", 32), strings.Repeat("1", 16), "", "resolver.wire", when, 42*time.Microsecond)
	with := func(edit func(*trace.Record)) trace.Record {
		r := base
		edit(&r)
		return r
	}
	recs := []trace.Record{
		base,
		with(func(r *trace.Record) { r.Parent = "00000000000000aa"; r.DurUS = 0 }),
		with(func(r *trace.Record) { r.Why = "slow" }),
		with(func(r *trace.Record) { r.Why = "error"; r.Err = "451 <greylisted> & deferred" }),
		with(func(r *trace.Record) {
			r.Attrs = []trace.Attr{{K: "dns.name", V: "héllo.例え."}, {}, {K: "n", V: "7"}}
		}),
		with(func(r *trace.Record) { r.Name = `esc"aped\` + "\u2028" }),
		with(func(r *trace.Record) {
			r.Parent, r.Why, r.Err = "00000000000000aa", "slow", "timeout"
			r.Attrs = []trace.Attr{{K: "dns.type", V: "TXT"}, {K: "note", V: "multi\nline"}}
		}),
	}
	path := filepath.Join(t.TempDir(), "spans.wal")
	writeSpanWAL(t, path, recs)

	// One more record, as another tool might have written it.
	foreign := with(func(r *trace.Record) {
		r.Span, r.Err = strings.Repeat("2", 16), "boom"
		r.Attrs = []trace.Attr{{K: "k", V: "v"}}
	})
	w, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(` { "dur_us" : 42, "attrs": [ {"v":"v", "k":"k"} ], "err":"boom", "start": %q,`+
		` "name":"resolver.wire", "span":%q , "trace":%q, "unknown": [1, {"x": null}] } `+"\n",
		when.Format(time.RFC3339Nano), foreign.Span, foreign.Trace)
	if _, err := w.Write([]byte(line)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, bad, _, err := loadSpans(path)
	if err != nil || bad != 0 {
		t.Fatalf("loadSpans: %d bad lines, err %v", bad, err)
	}
	want := append(recs, foreign)
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %#v\nwant %#v", i, got[i], want[i])
		}
	}
}

// TestLoadSpansOversizedJunkLine pins loadSpans' contract that an
// undecodable line is counted, not fatal, for the line a bufio.Scanner
// would choke on: over a mebibyte of garbage between two valid spans
// costs one bad line, not the whole -trace load.
func TestLoadSpansOversizedJunkLine(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	first := spanRec(strings.Repeat("a", 32), strings.Repeat("1", 16), "", "spf.check_host", base, time.Millisecond)
	second := spanRec(strings.Repeat("b", 32), strings.Repeat("2", 16), "", "resolver.wire", base.Add(time.Second), time.Millisecond)

	// A plain (unframed) JSONL span file, which wal.OpenStream passes
	// through as is.
	var file []byte
	file = trace.AppendRecordJSON(file, first)
	file = append(file, strings.Repeat("\x00garbage", 1<<17)...) // ~1.1 MiB, no newline inside
	file = append(file, '\n')
	file = trace.AppendRecordJSON(file, second)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	got, bad, _, err := loadSpans(path)
	if err != nil {
		t.Fatalf("oversized junk line failed the load: %v", err)
	}
	if bad != 1 {
		t.Errorf("bad = %d, want 1 (the junk line)", bad)
	}
	if len(got) != 2 || got[0].Span != first.Span || got[1].Span != second.Span {
		t.Fatalf("salvaged %d records, want the two spans around the junk", len(got))
	}
}

// TestRenderTraceTrees drives the forest assembly and query-log join
// over synthetic data: nesting, orphan adoption, time-window and
// name/type matching, the one-entry-one-span rule, and the
// per-(MTA, test) aggregate.
func TestRenderTraceTrees(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	traceA := strings.Repeat("a", 32)
	traceB := strings.Repeat("b", 32)

	root := spanRec(traceA, "a000000000000001", "", "spfcheck", base, 100*time.Millisecond)
	child := spanRec(traceA, "a000000000000002", "a000000000000001", "spf.check_host", base.Add(time.Millisecond), 80*time.Millisecond)
	wire := spanRec(traceA, "a000000000000003", "a000000000000002", "resolver.wire", base.Add(2*time.Millisecond), 40*time.Millisecond)
	wire.Attrs = []trace.Attr{{K: "dns.name", V: "x.t01.m07.spf.example.test."}, {K: "dns.type", V: "TXT"}}
	// An orphan: its parent span was never exported (unsampled parent of
	// a promoted child). It must become its own root, joinable.
	orphan := spanRec(traceB, "b000000000000001", "b0000000000000ff", "resolver.wire", base.Add(time.Second), 30*time.Millisecond)
	orphan.Attrs = []trace.Attr{{K: "dns.name", V: "y.t02.m07.spf.example.test."}, {K: "dns.type", V: "A"}}

	entries := []dnsserver.LogEntry{
		// Joins the traceA wire span: name, type, and time all match.
		{Time: base.Add(10 * time.Millisecond), Name: "x.t01.m07.spf.example.test.",
			Type: dns.TypeTXT, TestID: "t01", MTAID: "m07", Transport: "udp"},
		// Same name/type but far outside the span window: stays unjoined.
		{Time: base.Add(time.Hour), Name: "x.t01.m07.spf.example.test.",
			Type: dns.TypeTXT, TestID: "t01", MTAID: "m07", Transport: "udp"},
		// Type mismatch: stays unjoined.
		{Time: base.Add(10 * time.Millisecond), Name: "x.t01.m07.spf.example.test.",
			Type: dns.TypeA, TestID: "t01", MTAID: "m07", Transport: "udp"},
		// Joins the orphan root.
		{Time: base.Add(time.Second + 5*time.Millisecond), Name: "y.t02.m07.spf.example.test.",
			Type: dns.TypeA, TestID: "t02", MTAID: "m07", Transport: "tcp"},
	}

	var b strings.Builder
	renderTraceTrees(&b, []trace.Record{root, child, wire, orphan}, entries, 0)
	out := b.String()

	if !strings.Contains(out, "traces: 4 spans in 2 trees, 2 of 4 log entries joined to wire spans") {
		t.Errorf("header wrong:\n%s", out)
	}
	// Nesting: the wire span sits two levels under the root.
	if !strings.Contains(out, "\n    resolver.wire") {
		t.Errorf("wire span not nested at depth 2:\n%s", out)
	}
	if !strings.Contains(out, "-> served TXT mta=m07 test=t01 over udp") {
		t.Errorf("joined TXT entry not rendered under its span:\n%s", out)
	}
	if !strings.Contains(out, "-> served A mta=m07 test=t02 over tcp") {
		t.Errorf("orphan root's joined entry missing:\n%s", out)
	}
	if !strings.Contains(out, "mta=m07        test=t01    lookups=1") ||
		!strings.Contains(out, "mta=m07        test=t02    lookups=1") {
		t.Errorf("per-(MTA, test) aggregate wrong:\n%s", out)
	}
	// Roots are start-ordered: traceA (noon) before traceB (+1s).
	if ai, bi := strings.Index(out, "trace="+traceA), strings.Index(out, "trace="+traceB); ai < 0 || bi < 0 || ai > bi {
		t.Errorf("roots not in start order (a@%d, b@%d):\n%s", ai, bi, out)
	}
}

// TestRenderTraceTreesCap pins the -trace-trees cap.
func TestRenderTraceTreesCap(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var recs []trace.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, spanRec(
			strings.Repeat("c", 31)+string(rune('0'+i)),
			strings.Repeat("d", 15)+string(rune('0'+i)),
			"", "probe.smtp", base.Add(time.Duration(i)*time.Second), time.Millisecond))
	}
	var b strings.Builder
	renderTraceTrees(&b, recs, nil, 2)
	out := b.String()
	if !strings.Contains(out, "(showing first 2 trees)") {
		t.Errorf("cap notice missing:\n%s", out)
	}
	if got := strings.Count(out, "probe.smtp"); got != 2 {
		t.Errorf("rendered %d trees, want 2:\n%s", got, out)
	}
}

package dnsserver

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/wal"
)

// logEntriesFor synthesizes n distinct query-log entries.
func logEntriesFor(n int) []LogEntry {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	out := make([]LogEntry, n)
	for i := range out {
		out[i] = LogEntry{
			Time:      base.Add(time.Duration(i) * time.Millisecond),
			Name:      fmt.Sprintf("l%d.t%02d.m%03d.spf-test.example.", i%3, i%7, i),
			Type:      dns.TypeTXT,
			TestID:    fmt.Sprintf("t%02d", i%7),
			MTAID:     fmt.Sprintf("m%03d", i),
			Transport: "udp",
			Remote:    "192.0.2.53:5353",
		}
		if i%5 == 0 {
			out[i].Rest = []string{"l1"}
			out[i].OverIPv6 = true
		}
	}
	return out
}

// plainJSONL renders entries as a pre-WAL plain JSONL log, the way
// QueryLog.WriteJSON persists a collected run.
func plainJSONL(t *testing.T, entries []LogEntry) []byte {
	t.Helper()
	var ql QueryLog
	for _, e := range entries {
		ql.Append(e)
	}
	var buf bytes.Buffer
	if err := ql.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWALSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.wal")
	sink, err := NewWALSink(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := logEntriesFor(50)
	for _, e := range want {
		sink.Append(e)
	}
	if err := sink.Check(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	ls, err := OpenLogStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	got, err := ReadLogJSON(ls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %d entries, want %d", len(got), len(want))
	}
	if st := ls.Stats(); st.Truncated || st.DroppedBytes != 0 {
		t.Fatalf("clean log reported damage: %+v", st)
	}
	if ls.Framed() != 1 {
		t.Fatalf("framed segments = %d, want 1", ls.Framed())
	}
}

func TestOpenLogStreamPlainFile(t *testing.T) {
	// A pre-WAL plain JSONL log reads through the same stream.
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	want := logEntriesFor(20)
	if err := os.WriteFile(path, plainJSONL(t, want), 0o644); err != nil {
		t.Fatal(err)
	}

	ls, err := OpenLogStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	got, err := ReadLogJSON(ls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plain stream mismatch: got %d entries, want %d", len(got), len(want))
	}
	if ls.Framed() != 0 {
		t.Fatalf("plain file counted as framed")
	}
}

// TestAnalyzeIngestRotatedEqualsPlain is the satellite-3 equality
// proof: the analyzer's parallel ordered ingest over a WAL log rotated
// into many segments yields exactly the entry sequence of the same
// log written as one plain JSONL file.
func TestAnalyzeIngestRotatedEqualsPlain(t *testing.T) {
	want := logEntriesFor(400)

	// Plain, unrotated reference.
	plain := plainJSONL(t, want)

	// Same entries through a WALSink rotating aggressively.
	path := filepath.Join(t.TempDir(), "queries.wal")
	sink, err := NewWALSink(path, wal.Options{RotateBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range want {
		sink.Append(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected heavy rotation, got %d segment(s)", len(segs))
	}

	ingest := func(r io.Reader) []LogEntry {
		t.Helper()
		var mu sync.Mutex
		var out []LogEntry
		if err := ParForEachLogJSONOrdered(r, 4, func(e LogEntry) error {
			mu.Lock()
			out = append(out, e)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	ref := ingest(bytes.NewReader(plain))
	ls, err := OpenLogStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	rotated := ingest(ls)

	if !reflect.DeepEqual(rotated, ref) {
		t.Fatalf("rotated ingest diverges from plain: %d vs %d entries", len(rotated), len(ref))
	}
	if ls.Framed() != len(segs) {
		t.Fatalf("framed = %d, want %d", ls.Framed(), len(segs))
	}
}

func TestOpenLogStreamTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.wal")
	sink, err := NewWALSink(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := logEntriesFor(30)
	for _, e := range want {
		sink.Append(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final frame mid-payload.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	ls, err := OpenLogStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	got, err := ReadLogJSON(ls)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("salvaged %d entries, want %d", len(got), len(want)-1)
	}
	if !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatal("salvaged prefix diverges from original entries")
	}
	st := ls.Stats()
	if !st.Truncated || st.DroppedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", st)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := &QueryLog{}, &QueryLog{}
	m := MultiSink{a, b}
	want := logEntriesFor(5)
	for _, e := range want {
		m.Append(e)
	}
	if !reflect.DeepEqual(a.Entries(), want) || !reflect.DeepEqual(b.Entries(), want) {
		t.Fatal("MultiSink did not deliver to every sink")
	}
}

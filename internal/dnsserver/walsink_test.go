package dnsserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 2048 {
			t.Fatalf("segment %s holds %d bytes, over RotateBytes 2048", seg, fi.Size())
		}
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

// readWALLog reads the query log at path through OpenLogStream.
func readWALLog(t *testing.T, path string) ([]LogEntry, wal.RecoverStats) {
	t.Helper()
	ls, err := OpenLogStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	got, err := ReadLogJSON(ls)
	if err != nil {
		t.Fatal(err)
	}
	return got, ls.Stats()
}

// TestWALSinkAppendAllocs: a steady-state Append allocates nothing,
// the batch writes it sets off included. Each run appends enough
// entries to write at least two batches.
func TestWALSinkAppendAllocs(t *testing.T) {
	sink, err := NewWALSink(filepath.Join(t.TempDir(), "queries.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	e := allocTestEntry()
	perBatch := walBatchBytes/len(AppendLogJSON(nil, e)) + 1
	run := func() {
		for range 2 * perBatch {
			sink.Append(e)
		}
	}
	run() // grow the batch and the WAL's frame buffer
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("%d WALSink appends: %v allocs per run, want 0", 2*perBatch, allocs)
	}
}

// TestAsyncLogFlushesWhenIdle: once an AsyncLog over a WALSink has
// drained its queue, the WAL holds every entry in order, without a
// Close. The entries span more than one batch, so the last, partial
// batch reaches the WAL only because the drain flushes the sink when
// its queue runs empty.
func TestAsyncLogFlushesWhenIdle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.wal")
	sink, err := NewWALSink(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al := NewAsyncLog(sink, 0)
	defer sink.Close()
	defer al.Close()
	want := logEntriesFor(1000)
	for _, e := range want {
		al.Append(e)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := readWALLog(t, path)
		if len(got) == len(want) {
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the idle log's WAL holds the entries out of order or altered")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle log: the WAL holds %d of %d entries", len(got), len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var errTorn = errors.New("torn write")

// tornFile lets budget bytes through to the file, writes the part of
// the next write that fits, and fails from then on: a process killed
// at byte offset budget, as the WAL sees it.
type tornFile struct {
	wal.File
	budget int
	dead   bool
}

func (f *tornFile) Write(p []byte) (int, error) {
	if f.dead {
		return 0, errTorn
	}
	n := min(len(p), f.budget)
	f.budget -= n
	if n > 0 {
		if _, err := f.File.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	if n < len(p) {
		f.dead = true
		return n, errTorn
	}
	return n, nil
}

func (f *tornFile) Sync() error {
	if f.dead {
		return errTorn
	}
	return f.File.Sync()
}

// TestCrashAsyncLogTornBatch runs AsyncLog(WALSink) over a file that
// stops at a byte offset, most offsets falling inside a batch's write.
// OpenLogStream must return exactly the entries whose frames were
// complete, in append order, and report the torn frame's bytes as the
// dropped tail, wherever the drain happened to cut its batches.
func TestCrashAsyncLogTornBatch(t *testing.T) {
	want := logEntriesFor(600)
	// ends[i] is where entry i's frame (marker, length and CRC32C, 9
	// bytes, then the payload) ends in the log.
	ends := make([]int, len(want))
	off := 0
	for i, e := range want {
		off += 9 + len(AppendLogJSON(nil, e))
		ends[i] = off
	}
	dir := t.TempDir()
	for k := 1; k < off; k += 997 {
		path := filepath.Join(dir, fmt.Sprintf("queries-%d.wal", k))
		sink, err := NewWALSink(path, wal.Options{WrapFile: func(f wal.File) wal.File {
			return &tornFile{File: f, budget: k}
		}})
		if err != nil {
			t.Fatal(err)
		}
		al := NewAsyncLog(sink, len(want))
		for _, e := range want {
			al.Append(e)
		}
		al.Close()
		if sink.Check() == nil {
			t.Fatalf("kill at %d: the torn WAL passes its health check", k)
		}
		_ = sink.Close()

		complete := sort.SearchInts(ends, k+1) // frames ending at or before k
		good := 0
		if complete > 0 {
			good = ends[complete-1]
		}
		got, st := readWALLog(t, path)
		if len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, want[:complete])) {
			t.Fatalf("kill at %d: read %d entries, want the first %d in order", k, len(got), complete)
		}
		if st.Truncated != (k > good) || st.DroppedBytes != int64(k-good) {
			t.Fatalf("kill at %d: stats %+v, want %d torn bytes dropped", k, st, k-good)
		}
	}
}

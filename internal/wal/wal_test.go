package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// readAll collects every record payload of the segment chain at path
// through OpenStream, mirroring how analysis consumes a log.
func readAll(t *testing.T, path string) ([][]byte, RecoverStats) {
	t.Helper()
	s, err := OpenStream(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, RecoverStats{}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Payloads here are newline-terminated lines; split on them.
	all, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.SplitAfter(all, []byte{'\n'}) {
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out, s.Stats()
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("{\"i\":%d,\"pad\":%q}\n", i, string(make([]byte, i%37))))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	stats, err := Recover(path, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 100 || stats.Truncated || stats.DroppedBytes != 0 {
		t.Fatalf("recover of a clean log: %+v", stats)
	}

	got, rstats := readAll(t, path)
	if rstats.Records != 100 {
		t.Fatalf("reader saw %d records, want 100", rstats.Records)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}

	// Reopen and keep appending: recovery on a clean log is a no-op
	// and the file stays append-ready.
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := w2.Recovered(); r.Records != 100 || r.Truncated {
		t.Fatalf("reopen recovery: %+v", r)
	}
	if err := w2.Append([]byte("tail\n")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, path); len(got) != 101 {
		t.Fatalf("after reopen+append: %d records, want 101", len(got))
	}
}

func TestOpenRefusesPlainText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte("{\"ev\":\"done\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrNotWAL) {
		t.Fatalf("Open on plain JSONL: %v, want ErrNotWAL", err)
	}
	// The refusal must not have modified the file.
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		t.Fatalf("plain file was damaged: %q, %v", b, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.wal")
			w, err := Open(path, Options{Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := w.Append([]byte("x\n")); err != nil {
					t.Fatal(err)
				}
			}
			if policy == SyncAlways && w.syncs.Value() < 10 {
				t.Errorf("SyncAlways issued %d syncs for 10 appends", w.syncs.Value())
			}
			if policy == SyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for w.syncs.Value() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if w.syncs.Value() == 0 {
					t.Error("SyncInterval flusher never synced")
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
				t.Errorf("append after close: %v, want ErrClosed", err)
			}
			if stats, err := Recover(path, RecoverOptions{}); err != nil || stats.Records != 10 {
				t.Fatalf("recover: %+v, %v", stats, err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"none": SyncNone, "": SyncNone, "interval": SyncInterval, "always": SyncAlways,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("fsync"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestRotationConcurrentAppends hammers a rotating WAL from several
// goroutines under -race: every record must land exactly once across
// the segment chain, per-goroutine order preserved.
func TestRotationConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Open(path, Options{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := []byte(fmt.Sprintf("w%d-%04d\n", g, i))
				if err := w.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", segs)
	}
	records, stats := readAll(t, path)
	if stats.Truncated {
		t.Fatalf("clean rotated log reports truncation: %+v", stats)
	}
	if len(records) != writers*perWriter {
		t.Fatalf("read %d records, want %d", len(records), writers*perWriter)
	}
	// Exactly-once and per-writer order.
	next := make([]int, writers)
	seen := make(map[string]bool, len(records))
	for _, rec := range records {
		s := string(rec)
		if seen[s] {
			t.Fatalf("duplicate record %q", s)
		}
		seen[s] = true
		var g, i int
		if _, err := fmt.Sscanf(s, "w%d-%d", &g, &i); err != nil {
			t.Fatalf("unparseable record %q", s)
		}
		if i != next[g] {
			t.Fatalf("writer %d out of order: got %d want %d", g, i, next[g])
		}
		next[g]++
	}
}

// TestRecoverAcrossRotationBoundary tears the live segment right after
// a rotation: the rotated segments stay intact and recovery repairs
// only the live tail.
func TestRecoverAcrossRotationBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Open(path, Options{RotateBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for i := 0; i < 40; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%02d\n", i))); err != nil {
			t.Fatal(err)
		}
		want++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the live segment mid-frame.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 3 {
		t.Fatalf("live segment too small to tear (%d bytes)", len(b))
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(path, Options{RotateBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rec := w2.Recovered()
	if !rec.Truncated || rec.DroppedBytes == 0 {
		t.Fatalf("torn live segment not detected: %+v", rec)
	}
	if err := w2.Append([]byte("after-recovery\n")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	records, _ := readAll(t, path)
	// One record was torn off the live tail, one was appended after.
	if len(records) != want {
		t.Fatalf("read %d records, want %d (one torn, one re-appended)", len(records), want)
	}
	if string(records[len(records)-1]) != "after-recovery\n" {
		t.Fatalf("last record %q", records[len(records)-1])
	}
}

// faultFile is the fault-injecting WriteSyncer: it forwards writes to
// the real file until its byte budget runs out, then short-writes the
// remainder and fails everything after — the userspace half of a torn
// write.
type faultFile struct {
	f        File
	budget   int // bytes still allowed through
	failSync bool
	dead     bool
}

var errInjected = errors.New("injected write failure")

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.dead {
		return 0, errInjected
	}
	if len(p) <= ff.budget {
		ff.budget -= len(p)
		return ff.f.Write(p)
	}
	n := ff.budget
	ff.budget = 0
	ff.dead = true
	if n > 0 {
		if wn, err := ff.f.Write(p[:n]); err != nil {
			return wn, err
		}
	}
	return n, errInjected
}

func (ff *faultFile) Sync() error {
	if ff.dead || ff.failSync {
		return errInjected
	}
	return ff.f.Sync()
}

// TestStickyFailureWedgesWAL drives the WAL into a write failure and
// asserts the wedge is visible: Append returns the sticky error, Check
// fails (the /healthz contract), and recovery of the on-disk bytes
// still yields a consistent prefix.
func TestStickyFailureWedgesWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	var ff *faultFile
	w, err := Open(path, Options{WrapFile: func(f File) File {
		// "record\n" frames to headerSize+7 bytes; three full frames
		// plus 5 bytes dies mid 4th record.
		ff = &faultFile{f: f, budget: 3*(headerSize+7) + 5}
		return ff
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("healthy WAL fails Check: %v", err)
	}
	var firstErr error
	appended := 0
	for i := 0; i < 10; i++ {
		err := w.Append([]byte("record\n"))
		if err != nil {
			firstErr = err
			break
		}
		appended++
	}
	if firstErr == nil {
		t.Fatal("fault injection never fired")
	}
	if appended != 3 {
		t.Fatalf("%d records appended before the fault, want 3", appended)
	}
	if err := w.Append([]byte("more\n")); !errors.Is(err, errInjected) {
		t.Fatalf("append after wedge: %v, want sticky injected error", err)
	}
	if err := w.Err(); !errors.Is(err, errInjected) {
		t.Fatalf("Err() = %v", err)
	}
	if err := w.Check(); err == nil {
		t.Fatal("wedged WAL passes Check")
	}
	_ = w.Close()

	stats, err := Recover(path, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 {
		t.Fatalf("recovered %d records, want the 3 durable ones: %+v", stats.Records, stats)
	}
	if !stats.Truncated {
		t.Fatalf("short-written 4th record not truncated: %+v", stats)
	}
}

// TestWriterAdapter checks the io.Writer view: one record per Write,
// errors surfaced.
func TestWriterAdapter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sink io.Writer = w
	for i := 0; i < 5; i++ {
		n, err := sink.Write([]byte("line\n"))
		if err != nil || n != 5 {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats, _ := Recover(path, RecoverOptions{}); stats.Records != 5 {
		t.Fatalf("adapter wrote %d records, want 5", stats.Records)
	}
}

// TestReaderTornTailIsEOF pins the Reader's one mode: a torn tail is
// the end of the log, reported through Stats, never an error.
func TestReaderTornTailIsEOF(t *testing.T) {
	img := appendFrame(nil, []byte("one\n"))
	img = appendFrame(img, []byte("two\n"))
	torn := img[:len(img)-2]

	tr := NewReader(bytes.NewReader(torn))
	got, err := io.ReadAll(tr)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if string(got) != "one\n" {
		t.Fatalf("reader salvaged %q", got)
	}
	want := RecoverStats{Records: 1, GoodBytes: int64(headerSize + 4), DroppedBytes: int64(headerSize + 2), Truncated: true}
	if s := tr.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestSegmentsOrder pins numeric (not lexical) segment ordering past
// ten rotations.
func TestSegmentsOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	w, err := Open(path, Options{RotateBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := w.Append([]byte(fmt.Sprintf("%04d-padding-padding\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 12 {
		t.Fatalf("wanted >11 segments to cross the lexical trap, got %d", len(segs))
	}
	records, _ := readAll(t, path)
	for i, rec := range records {
		var got int
		if _, err := fmt.Sscanf(string(rec), "%d-", &got); err != nil || got != i {
			t.Fatalf("segment order broken at record %d: %q", i, rec)
		}
	}
}

// TestRandomizedKillAndReopen loops crash/reopen cycles with random
// tears, asserting the salvaged prefix only ever grows by appended
// records — the WAL's history is append-only across repairs.
func TestRandomizedKillAndReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	path := filepath.Join(t.TempDir(), "log.wal")
	var history [][]byte
	for cycle := 0; cycle < 25; cycle++ {
		w, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		salvaged := w.Recovered().Records
		if salvaged > len(history) {
			t.Fatalf("cycle %d: salvaged %d > %d ever durably appended", cycle, salvaged, len(history))
		}
		history = history[:salvaged]
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			rec := []byte(fmt.Sprintf("c%d-r%d-%x\n", cycle, i, rng.Int63()))
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			history = append(history, rec)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate the crash: chop a random number of tail bytes.
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if chop := rng.Intn(30); chop > 0 {
			if chop > len(b) {
				chop = len(b)
			}
			b = b[:len(b)-chop]
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			// Drop history entries the chop destroyed.
			stats, err := Recover(path, RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			history = history[:stats.Records]
		}
	}
	records, _ := readAll(t, path)
	if len(records) != len(history) {
		t.Fatalf("final log has %d records, expected %d", len(records), len(history))
	}
	for i := range history {
		if !bytes.Equal(records[i], history[i]) {
			t.Fatalf("record %d: got %q want %q", i, records[i], history[i])
		}
	}
}

// countingFile counts the writes the WAL makes to a segment.
type countingFile struct {
	File
	writes *int
}

func (c countingFile) Write(p []byte) (int, error) {
	*c.writes++
	return c.File.Write(p)
}

// TestAppendBatchOneWritePerSegment: a batch reaches each segment it
// touches in one write, splits only where the next frame would push
// the segment past RotateBytes, and keeps its records in order.
func TestAppendBatchOneWritePerSegment(t *testing.T) {
	const rotate = 256
	path := filepath.Join(t.TempDir(), "log.wal")
	writes := 0
	w, err := Open(path, Options{RotateBytes: rotate, WrapFile: func(f File) File {
		return countingFile{File: f, writes: &writes}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 40 frames of headerSize+20 = 29 bytes: 8 fit in a 256-byte
	// segment, so one batch fills five segments, one write each.
	var recs [][]byte
	for i := range 40 {
		recs = append(recs, []byte(fmt.Sprintf("record %012d\n", i)))
	}
	if err := w.AppendBatch(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 || writes != 5 {
		t.Fatalf("%d segments, %d writes; want 5 and 5", len(segs), writes)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > rotate {
			t.Fatalf("segment %s holds %d bytes, over RotateBytes %d", seg, fi.Size(), rotate)
		}
	}
	got, stats := readAll(t, path)
	if stats.Truncated || len(got) != len(recs) {
		t.Fatalf("read %d records (%+v), want %d", len(got), stats, len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
}

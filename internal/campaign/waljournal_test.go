package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sendervalid/internal/wal"
)

// runJournaled runs a small campaign against the given journal sink
// and returns the final snapshot.
func runJournaled(t *testing.T, j Journal, mtas, tests int) Snapshot {
	t.Helper()
	c := New(Config{Workers: 4, Journal: j}, func(ctx context.Context, task Task) error {
		return nil
	})
	c.Add(tasksFor(mtas, tests)...)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot()
}

func TestOpenJournalFreshIsWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.wal")
	replay, j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Events != 0 || len(replay.Final) != 0 {
		t.Fatalf("fresh journal replay not empty: %+v", replay)
	}
	runJournaled(t, j, 3, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The file must be framed, not plain JSONL.
	head := make([]byte, 1)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(head); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !wal.IsFramed(head) {
		t.Fatalf("fresh journal first byte %#x, want WAL marker", head[0])
	}

	// Reopening replays every event and reports a healthy tail.
	replay2, j2, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay2.Done() != 6 {
		t.Fatalf("replay done = %d, want 6", replay2.Done())
	}
	if replay2.TornTail || replay2.DroppedBytes != 0 || replay2.Malformed != 0 {
		t.Fatalf("clean journal reported damage: %+v", replay2)
	}
	if len(replay2.Unfinished(tasksFor(3, 2))) != 0 {
		t.Fatal("clean replay left unfinished tasks")
	}
}

func TestOpenJournalWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.wal")
	_, j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runJournaled(t, j, 4, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame: drop the final 3 bytes, mid-payload.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	replay, j2, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !replay.TornTail {
		t.Fatal("torn WAL tail not reported")
	}
	if replay.DroppedBytes == 0 {
		t.Fatal("torn WAL tail reported zero dropped bytes")
	}
	// The torn record was exactly one event; everything before it
	// replays. 4 MTAs x 2 tests = 8 done events and nothing else, so
	// the torn one is the last task's final state.
	if got := replay.Done(); got != 7 {
		t.Fatalf("salvaged %d done tasks, want 7", got)
	}
	if replay.Malformed != 0 {
		t.Fatalf("WAL replay saw %d malformed lines, want 0 (tears are truncated, not parsed)", replay.Malformed)
	}
	// Recovery left the file append-ready: the journal keeps working.
	if _, err := j2.Write([]byte(`{"t":"2026-01-01T00:00:00Z","ev":"enqueue","k":{"mta":"x","test":"y"}}` + "\n")); err != nil {
		t.Fatal(err)
	}
}

// legacyJournal is a journal as written before journals recorded
// outcomes only, with "enqueue" and "attempt" lines: m0/t1 done and
// m1/t1 enqueued. The tests that replay it show that such a journal
// still resumes.
const legacyJournal = `{"t":"2026-01-01T00:00:00Z","ev":"enqueue","k":{"mta":"m0","test":"t1"}}
{"t":"2026-01-01T00:00:00Z","ev":"attempt","k":{"mta":"m0","test":"t1"},"n":1}
{"t":"2026-01-01T00:00:01Z","ev":"done","k":{"mta":"m0","test":"t1"},"n":1}
{"t":"2026-01-01T00:00:01Z","ev":"enqueue","k":{"mta":"m1","test":"t1"}}
`

// writeLines writes text to w one line per Write, as the campaign
// writes events: one WAL record each.
func writeLines(t *testing.T, w io.Writer, text string) {
	t.Helper()
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if _, err := io.WriteString(w, line); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyJournalBytes is legacyJournal as an unframed journal image:
// plain JSONL. With torn set the last line is cut mid-way and has no
// newline, the classic crash artifact.
func legacyJournalBytes(torn bool) []byte {
	full := []byte(legacyJournal)
	if !torn {
		return full
	}
	return full[:bytes.LastIndexByte(full[:len(full)-1], '\n')+1+7]
}

// TestOpenJournalRejectsNonJournal: nothing appends to an unframed
// file. A plain-JSONL journal is refused with wal.ErrNotWAL, a plain
// file with no valid event as not a journal, and neither refusal
// renames, truncates or creates anything.
func TestOpenJournalRejectsNonJournal(t *testing.T) {
	for _, c := range []struct {
		name    string
		content []byte
		notWAL  bool
	}{
		{"plain JSONL journal", legacyJournalBytes(false), true},
		{"torn JSONL journal", legacyJournalBytes(true), true},
		{"no valid event", []byte("not a journal\nat all\n"), false},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "camp.jsonl")
		if err := os.WriteFile(path, c.content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenJournal(path, JournalOptions{})
		if err == nil || errors.Is(err, wal.ErrNotWAL) != c.notWAL {
			t.Errorf("%s: error %v; want a refusal, wal.ErrNotWAL: %v", c.name, err, c.notWAL)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); len(entries) != 1 || !bytes.Equal(got, c.content) {
			t.Errorf("%s: refused file was touched: %d entries, content %q", c.name, len(entries), got)
		}
	}
}

// TestReplaySalvagesTruncatedFinalLine: a JSONL stream whose final line
// is a torn fragment. The valid prefix must be salvaged and the
// fragment counted, not parsed.
func TestReplaySalvagesTruncatedFinalLine(t *testing.T) {
	replay, err := ReadJournal(bytes.NewReader(legacyJournalBytes(true)))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Done() != 1 {
		t.Fatalf("salvaged done = %d, want 1", replay.Done())
	}
	if replay.Malformed != 1 {
		t.Fatalf("malformed = %d, want 1 (the torn fragment)", replay.Malformed)
	}
	// The m1 enqueue was the torn line: it must not be replayed.
	if replay.Events != 3 {
		t.Fatalf("replayed %d events, want 3: the torn fragment leaked into replay", replay.Events)
	}
}

// TestOpenJournalRotatedSegmentDebris: crash debris at the end of a
// rotated segment is skipped by every replay and must be reported, not
// only debris in the live segment.
func TestOpenJournalRotatedSegmentDebris(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.wal")
	_, j, err := OpenJournal(path, JournalOptions{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	runJournaled(t, j, 8, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, j, err := OpenJournal(path, JournalOptions{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if clean.TornTail || clean.DroppedBytes != 0 {
		t.Fatalf("clean rotated journal reported damage: %+v", clean)
	}

	first := path + ".1"
	img, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("journal did not rotate: %v", err)
	}
	img[len(img)-1] ^= 0x01 // the last frame of the segment fails its checksum
	if err := os.WriteFile(first, img, 0o644); err != nil {
		t.Fatal(err)
	}
	replay, j, err := OpenJournal(path, JournalOptions{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !replay.TornTail || replay.DroppedBytes == 0 {
		t.Fatalf("debris in %s not reported: TornTail=%v DroppedBytes=%d", first, replay.TornTail, replay.DroppedBytes)
	}
	if replay.Events != clean.Events-1 || replay.Malformed != 0 {
		t.Fatalf("replay lost more than the corrupt record: %d events (clean %d), %d malformed",
			replay.Events, clean.Events, replay.Malformed)
	}
}

// TestOpenJournalOversizedGarbageLine: one huge unterminated garbage
// line (larger than any sane buffer) must count as Malformed, not fail
// the resume.
func TestOpenJournalOversizedGarbageLine(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(legacyJournal)
	buf.WriteString(strings.Repeat("x", 256*1024))

	replay, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Done() != 1 || replay.Malformed != 1 {
		t.Fatalf("done=%d malformed=%d, want 1/1", replay.Done(), replay.Malformed)
	}
}

// errAfterWriter fails every write after the first n.
type errAfterWriter struct {
	mu sync.Mutex
	n  int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n <= 0 {
		return 0, errors.New("disk gone")
	}
	w.n--
	return len(p), nil
}

// TestJournalFailureSurfaces: a journal write failure must not
// silently disable durability — it shows up in the snapshot (and its
// String) and in JournalError, and the drop count grows per suppressed
// event.
func TestJournalFailureSurfaces(t *testing.T) {
	c := New(Config{
		Workers: 2,
		Journal: &errAfterWriter{n: 3},
	}, func(ctx context.Context, task Task) error { return nil })
	c.Add(tasksFor(3, 2)...)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := c.JournalError(); err == nil {
		t.Fatal("JournalError() = nil after write failures")
	}
	s := c.Snapshot()
	if s.JournalErr == "" {
		t.Fatal("snapshot missing journal error")
	}
	// 6 tasks emit one done event each; 3 were written, the 4th hit
	// the error (counted as dropped) and the remaining 2 were
	// suppressed.
	if s.JournalDropped != 3 {
		t.Fatalf("JournalDropped = %d, want 3", s.JournalDropped)
	}
	if !strings.Contains(s.String(), "JOURNAL-FAILED") {
		t.Fatalf("snapshot string hides the failure: %q", s.String())
	}
}

// TestOpenJournalRotation: a WAL journal rotated across several
// segments replays as one continuous record.
func TestOpenJournalRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.wal")
	_, j, err := OpenJournal(path, JournalOptions{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	runJournaled(t, j, 8, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	replay, j2, err := OpenJournal(path, JournalOptions{RotateBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if replay.Done() != 24 {
		t.Fatalf("rotated replay done = %d, want 24", replay.Done())
	}
	if len(replay.Unfinished(tasksFor(8, 3))) != 0 {
		t.Fatal("rotated replay left unfinished tasks")
	}
}

// TestReplayAdmit pins the journal-reuse policy both commands share:
// resume hands the replay back for pruning, a fresh run is admitted on
// an empty journal and refused on one with events, and salvaged crash
// debris is reported on either path.
func TestReplayAdmit(t *testing.T) {
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	used := &Replay{Events: 7, TornTail: true, DroppedBytes: 12, Malformed: 1}
	if got, err := used.Admit("j.wal", true, logf); err != nil || got != used {
		t.Errorf("resume: got %v, %v; want the replay itself", got, err)
	}
	_, err := used.Admit("j.wal", false, logf)
	if err == nil || err.Error() != "journal j.wal already has 7 events; pass -resume to continue it" {
		t.Errorf("fresh run on a used journal: %v", err)
	}
	const torn = "journal j.wal had a torn tail (12 bytes dropped, 1 malformed lines); valid prefix salvaged"
	if len(logged) != 2 || logged[0] != torn || logged[1] != torn {
		t.Errorf("torn-tail notices: %q", logged)
	}

	logged = nil
	if got, err := newReplay().Admit("j.wal", false, logf); got != nil || err != nil {
		t.Errorf("fresh run on an empty journal: got %v, %v; want nil, nil", got, err)
	}
	if len(logged) != 0 {
		t.Errorf("clean journal logged %q", logged)
	}
}

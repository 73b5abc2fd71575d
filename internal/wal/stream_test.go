package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeFramed writes n newline-terminated records to a fresh WAL.
func writeFramed(t *testing.T, path string, n int, opts Options) {
	t.Helper()
	w, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("{\"i\":%d,\"pad\":\"%0*d\"}\n", i, i%61, 0))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReplayAllocBounded pins the replay path's allocation
// profile: the frame decoder reuses one payload buffer, so replaying
// thousands of records costs the per-stream setup (segment listing,
// file, read buffer, Reader) and nothing per record.
func TestStreamReplayAllocBounded(t *testing.T) {
	const records = 4000
	path := filepath.Join(t.TempDir(), "log.wal")
	writeFramed(t, path, records, Options{})

	chunk := make([]byte, 32*1024)
	allocs := testing.AllocsPerRun(5, func() {
		s, err := OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := s.Read(chunk); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Records != records || st.Truncated {
			t.Fatalf("replayed %+v, want %d clean records", st, records)
		}
		s.Close()
	})
	if allocs > 40 {
		t.Fatalf("replaying %d records allocated %.0f times; want O(1) per stream, not per record", records, allocs)
	}
}

// TestStreamMixedSegments: a plain segment that stops mid-line
// followed by framed segments, one of them with debris at its end,
// reads as one line stream — the plain fragment closed off, the debris
// skipped and counted — in segment order.
func TestStreamMixedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path+".1", []byte("plain-1\nplain-torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rotated := appendFrame(appendFrame(nil, []byte("framed-1\n")), []byte("framed-2\n"))
	debris := rotated[:len(rotated)-3]
	if err := os.WriteFile(path+".2", debris, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, appendFrame(nil, []byte("live-1\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := "plain-1\nplain-torn\nframed-1\nlive-1\n"; string(got) != want {
		t.Fatalf("stream = %q, want %q", got, want)
	}
	if s.Segments() != 3 || s.Framed() != 2 {
		t.Fatalf("segments = %d, framed = %d; want 3, 2", s.Segments(), s.Framed())
	}
	frame := int64(headerSize + len("framed-1\n"))
	want := RecoverStats{
		Records:      2,
		GoodBytes:    frame + int64(headerSize+len("live-1\n")),
		DroppedBytes: int64(len(debris)) - frame,
		Truncated:    true,
	}
	if st := s.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestStreamSinglePlainFileIsVerbatim: the separator is only ever
// inserted between segments, so a lone plain file — newline-terminated
// or not — streams byte for byte.
func TestStreamSinglePlainFileIsVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.jsonl")
	if err := os.WriteFile(path, []byte("a\nb"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "a\nb" {
		t.Fatalf("stream = %q, %v", got, err)
	}
	if st := s.Stats(); st != (RecoverStats{}) {
		t.Fatalf("plain file produced framed stats %+v", st)
	}
}

func TestOpenStreamMissing(t *testing.T) {
	if _, err := OpenStream(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestNextSegment pins the rotation rule: a segment is retired to one
// past the highest existing suffix, gaps not reused.
func TestNextSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if got := segmentName(path, nextSeq(path)); got != path+".1" {
		t.Fatalf("fresh log: %s", got)
	}
	for _, name := range []string{path + ".1", path + ".3", path + ".x"} {
		if err := os.WriteFile(name, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := segmentName(path, nextSeq(path)); got != path+".4" {
		t.Fatalf("after .1 and .3: %s, want %s.4", got, path)
	}
}

package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecover feeds Recover arbitrary byte soup. The invariants:
// it never panics, every salvaged record round-trips byte-identically
// through Append, and re-running Recover on the repaired file is a
// fixed point (same records, nothing further truncated). Seeds cover
// the interesting frame shapes; `make fuzz-seeds` replays them, and
// `go test -fuzz=FuzzWALRecover ./internal/wal/` explores.
func FuzzWALRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{\"ev\":\"done\"}\n"))                      // plain JSONL, no framing
	f.Add([]byte{Marker})                                     // lone marker
	f.Add([]byte{Marker, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // absurd length claim
	f.Add(appendFrame(nil, nil))                              // empty payload
	f.Add(appendFrame(nil, []byte("one line\n")))
	full := appendFrame(appendFrame(nil, []byte("a\n")), []byte("bb\n"))
	f.Add(full)
	f.Add(full[:len(full)-1])             // torn payload
	f.Add(full[:len(full)-len("bb\n")-2]) // torn header
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)                                          // checksum mismatch
	f.Add(append(append([]byte(nil), full...), 0xC3, 0x00)) // valid prefix, torn tail

	f.Fuzz(func(t *testing.T, soup []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "soup.wal")
		if err := os.WriteFile(path, soup, 0o644); err != nil {
			t.Fatal(err)
		}

		var salvaged [][]byte
		stats, err := Recover(path, RecoverOptions{OnRecord: func(p []byte) error {
			salvaged = append(salvaged, append([]byte(nil), p...))
			return nil
		}})
		if err != nil {
			t.Fatalf("Recover on arbitrary bytes must not error: %v", err)
		}
		if stats.GoodBytes+stats.DroppedBytes != int64(len(soup)) {
			t.Fatalf("accounting: %d good + %d dropped != %d input",
				stats.GoodBytes, stats.DroppedBytes, len(soup))
		}
		if len(salvaged) != stats.Records {
			t.Fatalf("delivered %d records, stats claim %d", len(salvaged), stats.Records)
		}

		// Fixed point: the repaired file recovers to itself.
		var again [][]byte
		stats2, err := Recover(path, RecoverOptions{OnRecord: func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if stats2.Truncated || stats2.Records != stats.Records || stats2.GoodBytes != stats.GoodBytes {
			t.Fatalf("Recover is not a fixed point: first %+v, second %+v", stats, stats2)
		}
		if len(again) != len(salvaged) {
			t.Fatalf("second pass delivered %d records, first %d", len(again), len(salvaged))
		}
		for i := range salvaged {
			if !bytes.Equal(again[i], salvaged[i]) {
				t.Fatalf("record %d changed between recovery passes", i)
			}
		}

		// Round trip: re-appending the salvaged records produces a log
		// whose recovery yields them byte-identically.
		rt := filepath.Join(dir, "roundtrip.wal")
		w, err := Open(rt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range salvaged {
			if err := w.Append(rec); err != nil {
				t.Fatalf("re-appending salvaged record: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var rtRecords [][]byte
		rtStats, err := Recover(rt, RecoverOptions{OnRecord: func(p []byte) error {
			rtRecords = append(rtRecords, append([]byte(nil), p...))
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if rtStats.Truncated || rtStats.Records != len(salvaged) {
			t.Fatalf("round-trip log recovery: %+v for %d records", rtStats, len(salvaged))
		}
		for i := range salvaged {
			if !bytes.Equal(rtRecords[i], salvaged[i]) {
				t.Fatalf("round-trip record %d differs", i)
			}
		}
	})
}

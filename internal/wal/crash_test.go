// The byte-level crash harness: level (1) of the two-level proof the
// durability work promises. A recorded append schedule is "killed" at
// every byte offset — by truncating the file image and by wedging a
// fault-injecting WriteSyncer at that offset — and Recover must always
// yield exactly the complete-frame prefix, with salvaged/dropped
// counts matching ground truth computed from the schedule. Level (2),
// the process-level SIGKILL/resume convergence test, lives in
// cmd/campaign.
//
// Probabilistic cases are seeded; reproduce with
//
//	CHAOS_SEED=<seed> go test -run TestCrash ./internal/wal/
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(42)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed: %d (re-run with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// schedule is a recorded append sequence plus its ground truth: the
// full byte image and, for every byte offset, how many whole records a
// file cut there contains.
type schedule struct {
	records [][]byte
	image   []byte
	// prefixRecords[k] = records fully contained in image[:k];
	// prefixGood[k] = bytes those records span.
	prefixRecords []int
	prefixGood    []int64
}

func makeSchedule(rng *rand.Rand, n int) *schedule {
	s := &schedule{
		prefixRecords: make([]int, 1),
		prefixGood:    make([]int64, 1),
	}
	for i := 0; i < n; i++ {
		// Sizes hit the interesting shapes: empty payloads, one-byte
		// records, and spans larger than the header.
		size := rng.Intn(64)
		if rng.Intn(5) == 0 {
			size = 0
		}
		rec := make([]byte, size)
		rng.Read(rec)
		s.records = append(s.records, rec)
		before := len(s.image)
		s.image = appendFrame(s.image, rec)
		for k := before + 1; k <= len(s.image); k++ {
			if k == len(s.image) {
				s.prefixRecords = append(s.prefixRecords, i+1)
				s.prefixGood = append(s.prefixGood, int64(len(s.image)))
			} else {
				s.prefixRecords = append(s.prefixRecords, i)
				s.prefixGood = append(s.prefixGood, int64(before))
			}
		}
	}
	return s
}

// recoverRecords runs Recover collecting salvaged payloads.
func recoverRecords(t *testing.T, path string) (RecoverStats, [][]byte) {
	t.Helper()
	var got [][]byte
	stats, err := Recover(path, RecoverOptions{OnRecord: func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}})
	if err != nil {
		t.Fatalf("Recover(%s): %v", path, err)
	}
	return stats, got
}

// TestCrashAtEveryByteOffset kills the schedule at every offset k by
// truncating the image: Recover must salvage exactly the whole-frame
// prefix, drop exactly the tail, and leave the file append-ready.
func TestCrashAtEveryByteOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	s := makeSchedule(rng, 20)
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	for k := 0; k <= len(s.image); k++ {
		if err := os.WriteFile(path, s.image[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		stats, got := recoverRecords(t, path)
		wantRecords, wantGood := s.prefixRecords[k], s.prefixGood[k]
		if stats.Records != wantRecords || stats.GoodBytes != wantGood {
			t.Fatalf("kill at %d: recovered %d records / %d bytes, want %d / %d",
				k, stats.Records, stats.GoodBytes, wantRecords, wantGood)
		}
		if wantDropped := int64(k) - wantGood; stats.DroppedBytes != wantDropped {
			t.Fatalf("kill at %d: dropped %d bytes, want %d", k, stats.DroppedBytes, wantDropped)
		}
		if stats.Truncated != (stats.DroppedBytes > 0) {
			t.Fatalf("kill at %d: Truncated=%v with %d dropped", k, stats.Truncated, stats.DroppedBytes)
		}
		// Zero partial records surfaced: every salvaged payload is
		// byte-identical to what was appended.
		for i, p := range got {
			if !bytes.Equal(p, s.records[i]) {
				t.Fatalf("kill at %d: salvaged record %d differs", k, i)
			}
		}
		// The repaired file is append-ready and the appended record is
		// recoverable — the consistent-prefix invariant survives the
		// crash/repair/append cycle.
		w, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("kill at %d: reopen: %v", k, err)
		}
		if err := w.Append([]byte("post-crash")); err != nil {
			t.Fatalf("kill at %d: append after repair: %v", k, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, _ := recoverRecords(t, path)
		if again.Records != wantRecords+1 || again.Truncated {
			t.Fatalf("kill at %d: post-repair recover %+v, want %d records, no truncation",
				k, again, wantRecords+1)
		}
	}
}

// TestCrashViaFaultingWriterAtEveryOffset replays the same schedule
// through a live WAL whose WriteSyncer dies at byte offset k. Unlike
// image truncation this exercises the WAL's own failure handling: the
// sticky error, the wedge, and the on-disk state a real torn write
// leaves behind.
func TestCrashViaFaultingWriterAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t) + 1))
	s := makeSchedule(rng, 12)
	dir := t.TempDir()
	for k := 0; k <= len(s.image); k++ {
		path := filepath.Join(dir, fmt.Sprintf("log-%d.wal", k))
		var ff *faultFile
		w, err := Open(path, Options{WrapFile: func(f File) File {
			ff = &faultFile{f: f, budget: k}
			return ff
		}})
		if err != nil {
			t.Fatal(err)
		}
		wrote := 0
		var failErr error
		for _, rec := range s.records {
			if err := w.Append(rec); err != nil {
				failErr = err
				break
			}
			wrote++
		}
		if k < len(s.image) {
			if failErr == nil {
				t.Fatalf("kill at %d: writer never failed", k)
			}
			if !errors.Is(w.Err(), errInjected) {
				t.Fatalf("kill at %d: sticky error %v", k, w.Err())
			}
			if w.Check() == nil {
				t.Fatalf("kill at %d: wedged WAL passes health check", k)
			}
		} else if failErr != nil {
			t.Fatalf("full budget still failed: %v", failErr)
		}
		_ = w.Close()

		stats, got := recoverRecords(t, path)
		// Ground truth: Append either wrote a whole frame or died
		// mid-frame at offset k; the salvaged prefix is the whole
		// frames below k, and recovery must agree with both the
		// schedule and the number of successful Appends.
		wantRecords := s.prefixRecords[k]
		if stats.Records != wantRecords {
			t.Fatalf("kill at %d: recovered %d records, want %d", k, stats.Records, wantRecords)
		}
		if wrote < wantRecords {
			t.Fatalf("kill at %d: %d Appends succeeded but %d records recovered", k, wrote, stats.Records)
		}
		for i, p := range got {
			if !bytes.Equal(p, s.records[i]) {
				t.Fatalf("kill at %d: salvaged record %d differs", k, i)
			}
		}
	}
}

// TestCrashBitFlips corrupts one byte at a sample of offsets in an
// otherwise intact image: recovery must keep exactly the records
// before the corrupted frame — never resurrect ones after it, never
// surface the damaged one.
func TestCrashBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t) + 2))
	s := makeSchedule(rng, 16)
	// frameOf[k] = index of the record whose frame spans offset k.
	frameOf := make([]int, len(s.image))
	{
		off := 0
		for i, rec := range s.records {
			for j := 0; j < headerSize+len(rec); j++ {
				frameOf[off+j] = i
			}
			off += headerSize + len(rec)
		}
	}
	path := filepath.Join(t.TempDir(), "log.wal")
	for k := 0; k < len(s.image); k++ {
		img := append([]byte(nil), s.image...)
		img[k] ^= 0x41
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		stats, got := recoverRecords(t, path)
		// A flip strikes exactly one frame — its marker, length, CRC,
		// or payload — and recovery keeps precisely the records before
		// it: never the damaged one, never anything after it.
		want := frameOf[k]
		if stats.Records != want {
			t.Fatalf("flip at %d: %d records recovered, frame %d struck",
				k, stats.Records, want)
		}
		for i, p := range got {
			if !bytes.Equal(p, s.records[i]) {
				t.Fatalf("flip at %d: salvaged record %d differs", k, i)
			}
		}
		if stats.GoodBytes+stats.DroppedBytes != int64(len(img)) {
			t.Fatalf("flip at %d: %d good + %d dropped != %d total",
				k, stats.GoodBytes, stats.DroppedBytes, len(img))
		}
	}
}

// TestCrashBatchedAtEveryOffset appends the schedule through
// AppendBatch in seeded random batch sizes, one write per batch, over
// a WriteSyncer that dies at byte offset k. A kill inside a batch's
// write must cost exactly the frames it cut: Recover yields the whole
// frames below k and drops the k-minus-prefix bytes of the torn one,
// whatever the batch boundaries were.
func TestCrashBatchedAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t) + 3))
	s := makeSchedule(rng, 24)
	var batches [][][]byte
	for rest := s.records; len(rest) > 0; {
		n := min(1+rng.Intn(8), len(rest))
		batches = append(batches, rest[:n])
		rest = rest[n:]
	}
	dir := t.TempDir()
	for k := 0; k <= len(s.image); k++ {
		path := filepath.Join(dir, fmt.Sprintf("log-%d.wal", k))
		w, err := Open(path, Options{WrapFile: func(f File) File {
			return &faultFile{f: f, budget: k}
		}})
		if err != nil {
			t.Fatal(err)
		}
		wrote := 0 // records of the batches that returned nil
		var failErr error
		for _, b := range batches {
			if failErr = w.AppendBatch(b...); failErr != nil {
				break
			}
			wrote += len(b)
		}
		if (failErr != nil) != (k < len(s.image)) {
			t.Fatalf("kill at %d: AppendBatch error %v with %d of %d bytes allowed", k, failErr, k, len(s.image))
		}
		_ = w.Close()

		stats, got := recoverRecords(t, path)
		wantRecords, wantGood := s.prefixRecords[k], s.prefixGood[k]
		if stats.Records != wantRecords || stats.GoodBytes != wantGood {
			t.Fatalf("kill at %d: recovered %d records / %d bytes, want %d / %d",
				k, stats.Records, stats.GoodBytes, wantRecords, wantGood)
		}
		if wantDropped := int64(k) - wantGood; stats.DroppedBytes != wantDropped {
			t.Fatalf("kill at %d: dropped %d bytes, want %d", k, stats.DroppedBytes, wantDropped)
		}
		if wrote > wantRecords {
			t.Fatalf("kill at %d: batches holding %d records returned nil, %d recovered", k, wrote, wantRecords)
		}
		for i, p := range got {
			if !bytes.Equal(p, s.records[i]) {
				t.Fatalf("kill at %d: salvaged record %d differs", k, i)
			}
		}
	}
}

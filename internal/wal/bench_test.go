package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkWALAppend measures the per-record append cost of each sync
// policy over a realistic journal-line payload. sync=none is the
// number to watch (it must stay comparable to a plain buffered write);
// sync=always is the price of machine-crash durability and is
// dominated by the device's fsync latency. The `probe-campaign`
// journal appends at sync=none, the `authdns-serve` query log at
// sync=interval.
func BenchmarkWALAppend(b *testing.B) {
	rec := []byte(`{"t":"2026-08-08T12:00:00.000000001Z","ev":"done","k":{"mta":"mta00042","test":"t12"},"n":2}` + "\n")
	for _, policy := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.wal")
			w, err := Open(path, Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(rec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same records written as the query log's sink writes them:
	// 64 KiB of frames per AppendBatch, one write. ns/op is per record.
	b.Run("none-batched", func(b *testing.B) {
		w, err := Open(filepath.Join(b.TempDir(), "bench.wal"), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		batch := make([][]byte, (64<<10)/(headerSize+len(rec)))
		for i := range batch {
			batch[i] = rec
		}
		b.SetBytes(int64(len(rec)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(batch) {
			if err := w.AppendBatch(batch[:min(len(batch), b.N-i)]...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALRecover measures replaying a journal-sized log: the cost
// a resumed campaign pays at startup, and the replay the `log-ingest`
// workload starts each pass with.
func BenchmarkWALRecover(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	w, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		rec := fmt.Sprintf(`{"t":"2026-08-08T12:00:00Z","ev":"done","k":{"mta":"mta%05d","test":"t12"}}`+"\n", i)
		if err := w.Append([]byte(rec)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := Recover(path, RecoverOptions{})
		if err != nil || stats.Records != 10000 {
			b.Fatalf("%+v, %v", stats, err)
		}
	}
}

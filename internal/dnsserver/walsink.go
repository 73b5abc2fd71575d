package dnsserver

import (
	"fmt"
	"sync"

	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

// This file puts the on-disk query log on the write-ahead log. The
// payload stays the same JSON line AppendLogJSON has always produced —
// one entry per record — so the analysis pipeline keeps its codec; the
// framing adds a checksum and a recovery story, so a machine crash
// mid-collection costs a truncated tail instead of a log whose last
// line may or may not be garbage. The read side is wal.OpenStream,
// which presents the whole history — rotated segments, framed or plain
// — as one JSONL stream to the existing ingest.

// MultiSink fans each entry out to every sink in order: cmd/authdns
// composes its stdout printer with a WALSink that makes the same
// entries durable.
type MultiSink []Sink

// Append implements Sink.
func (m MultiSink) Append(e LogEntry) {
	for _, s := range m {
		s.Append(e)
	}
}

// flush writes out what each member holds back.
func (m MultiSink) flush() {
	for _, s := range m {
		flush(s)
	}
}

// flush writes out what sink holds back, if it batches: a WALSink's
// pending batch, or those of a MultiSink's members. AsyncLog calls it
// whenever its queue runs empty, so an idle log holds nothing back.
func flush(sink Sink) {
	if f, ok := sink.(interface{ flush() }); ok {
		f.flush()
	}
}

// walBatchBytes is the size at which WALSink writes its pending
// entries out: one write per 64 KiB of entries, not one per entry.
const walBatchBytes = 64 << 10

// WALSink appends each query-log entry as one checksummed WAL record.
// It is safe for concurrent use, encodes through the reflection-free
// codec straight into its pending batch, and keeps write errors
// sticky — surfaced through Err and Check rather than the serving
// path. The batch goes to the WAL, one write, once it reaches
// walBatchBytes, when AsyncLog's queue runs empty, and at Close. It is
// a blocking disk sink: wrap it in an AsyncLog.
type WALSink struct {
	mu   sync.Mutex
	w    *wal.WAL
	buf  []byte   // pending entries, encoded back to back
	ends []int    // where each pending entry ends in buf
	recs [][]byte // buf cut at ends, reused by flushLocked
}

// NewWALSink opens (recovering if needed) the WAL at path and returns
// a sink appending to it.
func NewWALSink(path string, opts wal.Options) (*WALSink, error) {
	w, err := wal.Open(path, opts)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: opening query-log WAL: %w", err)
	}
	return &WALSink{w: w}, nil
}

// Append implements Sink. The first write failure wedges the
// underlying WAL; later entries are dropped there and counted in its
// failure metric.
func (s *WALSink) Append(e LogEntry) {
	s.mu.Lock()
	s.buf = AppendLogJSON(s.buf, e)
	s.ends = append(s.ends, len(s.buf))
	if len(s.buf) >= walBatchBytes {
		s.flushLocked()
	}
	s.mu.Unlock()
}

// flush writes the pending batch out.
func (s *WALSink) flush() {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

func (s *WALSink) flushLocked() {
	if len(s.ends) == 0 {
		return
	}
	s.recs = s.recs[:0]
	start := 0
	for _, end := range s.ends {
		s.recs = append(s.recs, s.buf[start:end])
		start = end
	}
	_ = s.w.AppendBatch(s.recs...)
	s.buf, s.ends = s.buf[:0], s.ends[:0]
}

// Close writes the pending batch out, then syncs and closes the
// underlying WAL.
func (s *WALSink) Close() error {
	s.flush()
	return s.w.Close()
}

// Check returns the WAL's sticky failure, nil while healthy, in
// telemetry.Health check form.
func (s *WALSink) Check() error { return s.w.Check() }

// Recovered reports what opening the WAL salvaged and truncated.
func (s *WALSink) Recovered() wal.RecoverStats { return s.w.Recovered() }

// RegisterMetrics publishes the underlying WAL's durability
// instruments.
func (s *WALSink) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	s.w.RegisterMetrics(reg, labels...)
}

// LogStream and OpenLogStream are the query log's names for the one
// segment reader, wal.Stream: rotated, framed and plain pre-WAL
// segments, sniffed per segment, presented as one JSONL stream. They
// stay as forwarding names because the frozen bench/ still calls
// dnsserver.OpenLogStream; product code uses wal.OpenStream.
type LogStream = wal.Stream

func OpenLogStream(path string) (*LogStream, error) { return wal.OpenStream(path) }

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

// WALSink appends each query-log entry as one checksummed WAL record.
// It is safe for concurrent use, encodes through the reflection-free
// codec into a reused buffer, and keeps write errors sticky — surfaced
// through Err and Check rather than the serving path. It is a blocking
// disk sink: wrap it in an AsyncLog.
type WALSink struct {
	mu  sync.Mutex
	w   *wal.WAL
	buf []byte
}

// NewWALSink opens (recovering if needed) the WAL at path and returns
// a sink appending to it.
func NewWALSink(path string, opts wal.Options) (*WALSink, error) {
	w, err := wal.Open(path, opts)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: opening query-log WAL: %w", err)
	}
	return &WALSink{w: w, buf: make([]byte, 0, 512)}, nil
}

// Append implements Sink. The first append failure wedges the
// underlying WAL; later entries are dropped there and counted in its
// failure metric.
func (s *WALSink) Append(e LogEntry) {
	s.mu.Lock()
	s.buf = AppendLogJSON(s.buf[:0], e)
	_ = s.w.Append(s.buf)
	s.mu.Unlock()
}

// Close syncs and closes the underlying WAL.
func (s *WALSink) Close() error { return s.w.Close() }

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

package dnsserver

import (
	"fmt"
	"io"
	"os"
	"sync"

	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

// This file puts the on-disk query log on the write-ahead log. The
// payload stays the same JSON line AppendLogJSON has always produced —
// one entry per record — so the analysis pipeline keeps its codec; the
// framing adds a checksum and a recovery story, so a machine crash
// mid-collection costs a truncated tail instead of a log whose last
// line may or may not be garbage. OpenLogStream is the read side:
// it walks a log's rotated segments in append order, sniffs each
// segment's format from its first byte, and presents the whole history
// as one plain JSONL stream to the existing ingest.

// MultiSink fans each entry out to every sink in order. The typical
// composition keeps the in-memory QueryLog (for the live status
// printer and end-of-run analyses) while a WALSink makes the same
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

// Sync forces buffered records to stable storage.
func (s *WALSink) Sync() error { return s.w.Sync() }

// Close syncs and closes the underlying WAL.
func (s *WALSink) Close() error { return s.w.Close() }

// Err returns the WAL's sticky failure, nil while healthy.
func (s *WALSink) Err() error { return s.w.Err() }

// Check is Err in telemetry.Health check form.
func (s *WALSink) Check() error { return s.w.Check() }

// Recovered reports what opening the WAL salvaged and truncated.
func (s *WALSink) Recovered() wal.RecoverStats { return s.w.Recovered() }

// RegisterMetrics publishes the underlying WAL's durability
// instruments.
func (s *WALSink) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	s.w.RegisterMetrics(reg, labels...)
}

// LogStream reads a query log — plain JSONL, WAL-framed, rotated into
// segments, or any mix — as one continuous JSONL stream. Each segment's
// format is sniffed independently from its first byte, because a log
// directory can legitimately hold both: plain segments from a pre-WAL
// collector next to framed ones from the current.
type LogStream struct {
	segs   []string
	idx    int
	f      *os.File
	cur    io.Reader
	walr   *wal.Reader
	stats  wal.RecoverStats
	framed int
}

// OpenLogStream opens the query log at path and all its rotated
// segments (<path>.1, <path>.2, ...) in append order.
func OpenLogStream(path string) (*LogStream, error) {
	segs, err := wal.Segments(path)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: listing log segments: %w", err)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("dnsserver: opening log %s: %w", path, os.ErrNotExist)
	}
	return &LogStream{segs: segs}, nil
}

// Read implements io.Reader over the concatenated segments.
func (s *LogStream) Read(p []byte) (int, error) {
	for {
		if s.cur == nil {
			if s.idx >= len(s.segs) {
				return 0, io.EOF
			}
			if err := s.openNext(); err != nil {
				return 0, err
			}
		}
		n, err := s.cur.Read(p)
		if err == io.EOF {
			s.finishSegment()
			if n > 0 {
				return n, nil
			}
			continue
		}
		return n, err
	}
}

// openNext opens segment idx and sniffs its framing.
func (s *LogStream) openNext() error {
	f, err := os.Open(s.segs[s.idx])
	if err != nil {
		return fmt.Errorf("dnsserver: opening log segment: %w", err)
	}
	var first [1]byte
	n, rerr := f.Read(first[:])
	if rerr != nil && rerr != io.EOF {
		f.Close()
		return fmt.Errorf("dnsserver: reading log segment: %w", rerr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("dnsserver: seeking log segment: %w", err)
	}
	s.f = f
	if n == 1 && wal.IsFramed(first[:]) {
		s.walr = wal.NewReader(f)
		s.cur = s.walr
		s.framed++
	} else {
		s.walr = nil
		s.cur = f
	}
	return nil
}

// finishSegment folds the finished segment's salvage accounting into
// the stream totals and advances.
func (s *LogStream) finishSegment() {
	if s.walr != nil {
		st := s.walr.Stats()
		s.stats.Records += st.Records
		s.stats.GoodBytes += st.GoodBytes
		s.stats.DroppedBytes += st.DroppedBytes
		s.stats.Truncated = s.stats.Truncated || st.Truncated
		s.walr = nil
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	s.cur = nil
	s.idx++
}

// Close releases the currently open segment.
func (s *LogStream) Close() error {
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		s.cur = nil
		return err
	}
	return nil
}

// Segments reports how many files make up the stream; Framed how many
// of those read so far were WAL-framed.
func (s *LogStream) Segments() int { return len(s.segs) }
func (s *LogStream) Framed() int   { return s.framed }

// Stats accumulates the framed segments' salvage accounting; complete
// once the stream has been consumed to EOF. A nonzero DroppedBytes
// means some tail of a framed segment was crash debris the tolerant
// reader skipped.
func (s *LogStream) Stats() wal.RecoverStats { return s.stats }

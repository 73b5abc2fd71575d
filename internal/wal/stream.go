package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Stream reads a durable record log — WAL-framed, rotated into
// segments, plain JSONL, or any mix — as one continuous payload stream.
// It is the reader for all three of the study's artifacts (query log,
// campaign journal, span file). Each segment's format is sniffed
// independently from its first byte. The plain branch is live input,
// not history: `experiment -log-out` and the benchmark's probe workload
// write their query logs as unframed JSONL, and cmd/analyze reads them
// through here. (No journal writer produces plain files, and
// campaign.OpenJournal refuses one.)
type Stream struct {
	segs   []string
	idx    int       // segments finished
	f      *os.File  // the open segment
	cur    io.Reader // its payload stream: a *Reader when framed, else the file's bytes
	last   byte      // last byte the open segment delivered
	sep    bool      // a newline is owed before the next segment
	stats  RecoverStats
	framed int
}

// OpenStream opens the log at path and all its rotated segments
// (<path>.1, <path>.2, ...) in append order. A log with no segment at
// all is os.ErrNotExist.
func OpenStream(path string) (*Stream, error) {
	segs, err := Segments(path)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("wal: opening log %s: %w", path, os.ErrNotExist)
	}
	return &Stream{segs: segs}, nil
}

// Read implements io.Reader over the concatenated segments.
func (s *Stream) Read(p []byte) (int, error) {
	for {
		if s.sep && len(p) > 0 {
			s.sep = false
			p[0] = '\n'
			return 1, nil
		}
		if s.cur == nil {
			if s.idx >= len(s.segs) {
				return 0, io.EOF
			}
			if err := s.openNext(); err != nil {
				return 0, err
			}
		}
		n, err := s.cur.Read(p)
		if n > 0 {
			s.last = p[n-1]
		}
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
func (s *Stream) openNext() error {
	f, err := os.Open(s.segs[s.idx])
	if err != nil {
		return fmt.Errorf("wal: opening log segment: %w", err)
	}
	br := bufio.NewReaderSize(f, readBufSize)
	head, err := br.Peek(1)
	if err != nil && err != io.EOF {
		f.Close()
		return fmt.Errorf("wal: reading log segment %s: %w", s.segs[s.idx], err)
	}
	s.f, s.cur, s.last = f, br, '\n'
	if IsFramed(head) {
		s.cur = NewReader(br) // adopts br: it is already a big-enough bufio.Reader
		s.framed++
	}
	return nil
}

// finishSegment folds the finished segment's salvage accounting into
// the stream totals and advances. A plain segment is line-oriented text
// by construction, so one that stops mid-line (a crash artifact) is
// closed off with a newline before the next segment starts: the torn
// fragment stays one undecodable line instead of swallowing the next
// segment's first record.
func (s *Stream) finishSegment() {
	r, framed := s.cur.(*Reader)
	if framed {
		s.stats.add(r.Stats())
	}
	s.f.Close()
	s.f, s.cur = nil, nil
	s.idx++
	s.sep = !framed && s.last != '\n' && s.idx < len(s.segs)
}

// Close releases the currently open segment.
func (s *Stream) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f, s.cur = nil, nil
	return err
}

// Segments reports how many files make up the stream; Framed how many
// of those read so far were WAL-framed.
func (s *Stream) Segments() int { return len(s.segs) }
func (s *Stream) Framed() int   { return s.framed }

// Stats accumulates the framed segments' salvage accounting; complete
// once the stream has been consumed to EOF. A nonzero DroppedBytes
// means some tail of a framed segment was crash debris the reader
// skipped.
func (s *Stream) Stats() RecoverStats { return s.stats }

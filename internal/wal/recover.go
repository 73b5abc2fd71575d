package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of one WAL file: the frame decoder, crash
// recovery (walk the file, keep the valid record prefix, truncate the
// rest) and the Reader that presents a framed file as its plain payload
// stream. stream.go strings segments together on top of it.
//
// The recovery invariant: a WAL file's meaningful content is always a
// prefix of complete, checksum-valid frames. Anything after the first
// invalid byte — wrong marker, impossible length, short payload, CRC
// mismatch — is crash debris by definition, because Append hands each
// frame to the kernel in order. Recovery therefore never resyncs past
// corruption looking for later records; doing so could resurrect
// records that were legitimately truncated away by an earlier repair,
// breaking the append-only history.

// readBufSize is the read-side buffer over a segment file.
const readBufSize = 64 * 1024

// RecoverStats describes a recovery or scan outcome.
type RecoverStats struct {
	// Records is the number of valid records in the salvaged prefix.
	Records int
	// GoodBytes is the length of the valid prefix (framing included).
	GoodBytes int64
	// DroppedBytes is the length of the torn/corrupt tail beyond the
	// prefix (truncated away by Recover, skipped by a Reader).
	DroppedBytes int64
	// Truncated reports whether a tail was dropped at all.
	Truncated bool
}

// add folds another file's outcome into s.
func (s *RecoverStats) add(o RecoverStats) {
	s.Records += o.Records
	s.GoodBytes += o.GoodBytes
	s.DroppedBytes += o.DroppedBytes
	s.Truncated = s.Truncated || o.Truncated
}

// RecoverOptions configures Recover.
type RecoverOptions struct {
	// RefuseUnframed makes Recover fail with ErrNotWAL when the file
	// is non-empty and does not start with the frame marker, instead
	// of truncating it to zero bytes. Open sets it: a plain JSONL log
	// at the WAL's path is someone's data, not a torn tail.
	RefuseUnframed bool
	// OnRecord, when non-nil, receives each salvaged record's payload
	// during the scan. The slice is reused between calls.
	OnRecord func(payload []byte) error
}

// Recover repairs the WAL file at path in place: it scans the frame
// sequence from the front, keeps the longest valid prefix, and
// truncates everything after it. It never errors on corrupt content —
// arbitrary bytes are a recoverable state, yielding an empty log at
// worst — and running it again on a repaired file is a fixed point.
// A missing file recovers to empty stats. Real I/O failures (open,
// read, truncate) are the only errors.
func Recover(path string, opts RecoverOptions) (RecoverStats, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return RecoverStats{}, nil
	}
	if err != nil {
		return RecoverStats{}, fmt.Errorf("wal: opening %s for recovery: %w", path, err)
	}
	defer f.Close()

	r := NewReader(f)
	if opts.RefuseUnframed {
		head, err := r.br.Peek(1)
		if err != nil && err != io.EOF {
			return RecoverStats{}, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if len(head) == 1 && !IsFramed(head) {
			return RecoverStats{}, fmt.Errorf("%w: %s", ErrNotWAL, path)
		}
	}
	for {
		payload, err := r.next()
		if err == io.EOF {
			break
		}
		if err == nil && opts.OnRecord != nil {
			err = opts.OnRecord(payload)
		}
		if err != nil {
			return r.stats, err
		}
	}
	if r.stats.Truncated {
		if err := f.Truncate(r.stats.GoodBytes); err != nil {
			return r.stats, fmt.Errorf("wal: truncating %s to %d bytes: %w", path, r.stats.GoodBytes, err)
		}
		if err := f.Sync(); err != nil {
			return r.stats, fmt.Errorf("wal: syncing %s after truncation: %w", path, err)
		}
	}
	return r.stats, nil
}

// readFrame reads the next frame from br and returns its payload in
// buf's storage (grown when too small; the caller keeps the returned
// slice as the next call's buf). It is the one place that decides what
// a valid frame is — marker, length bound, complete header, complete
// payload, checksum — so recovery and replay cannot disagree about
// where a log's valid prefix ends. The end of that prefix is io.EOF:
// with dropped == 0 on a clean frame boundary, otherwise with the rest
// of br consumed and counted as debris. Any other error is a real read
// failure.
func readFrame(br *bufio.Reader, buf []byte) (payload []byte, dropped int64, err error) {
	hdr, err := br.Peek(headerSize)
	if err == io.EOF {
		return nil, int64(len(hdr)), io.EOF // frame boundary, or a torn header
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: reading frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if hdr[0] != Marker || length > MaxRecordBytes {
		return debris(br, 0)
	}
	_, _ = br.Discard(headerSize) // cannot fail: those bytes were just peeked
	if cap(buf) < int(length) {
		buf = make([]byte, length, max(int(length), 2*cap(buf)))
	}
	payload = buf[:length]
	n, err := io.ReadFull(br, payload)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, int64(headerSize + n), io.EOF // torn payload
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: reading record payload: %w", err)
	}
	if Checksum(payload) != sum {
		return debris(br, headerSize+int64(length))
	}
	return payload, 0, nil
}

// debris ends the valid prefix at a corrupt frame: everything still in
// br is dropped along with the consumed bytes already read from it,
// counted without slurping a multi-GB tail into memory.
func debris(br *bufio.Reader, consumed int64) ([]byte, int64, error) {
	n, err := io.Copy(io.Discard, br)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: draining corrupt tail: %w", err)
	}
	return nil, consumed + n, io.EOF
}

// IsFramed reports whether a log stream beginning with these bytes is
// WAL-framed. An empty prefix is not framed (an empty file works under
// either reading, and the plain path is the historical default).
func IsFramed(prefix []byte) bool {
	return len(prefix) > 0 && prefix[0] == Marker
}

// Segments returns every segment of the WAL at path in append order:
// rotated segments <path>.1, <path>.2, ... by sequence number, then
// the live file itself. Only paths that exist are returned; a WAL that
// never rotated yields just {path}, and a missing WAL yields nil.
func Segments(path string) ([]string, error) {
	rotated, err := rotatedSegments(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rotated)+1)
	for _, s := range rotated {
		out = append(out, s.path)
	}
	if _, err := os.Stat(path); err == nil {
		out = append(out, path)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	return out, nil
}

type segment struct {
	path string
	seq  int
}

// rotatedSegments lists <path>.<n> files sorted by n.
func rotatedSegments(path string) ([]segment, error) {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments of %s: %w", path, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		rest, ok := strings.CutPrefix(name, base+".")
		if !ok {
			continue
		}
		seq, err := strconv.Atoi(rest)
		if err != nil || seq < 1 {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// nextSeq picks the rotation suffix after the highest existing one.
func nextSeq(path string) int {
	segs, err := rotatedSegments(path)
	if err != nil || len(segs) == 0 {
		return 1
	}
	return segs[len(segs)-1].seq + 1
}

// segmentName is the naming rule for rotated segments.
func segmentName(path string, seq int) string { return fmt.Sprintf("%s.%d", path, seq) }

// Reader streams the payloads of a framed log as one concatenated byte
// stream, so JSONL-over-WAL feeds the same line-oriented ingest as a
// plain file. A torn or corrupt tail reads as a clean EOF and is
// reported through Stats.
type Reader struct {
	br      *bufio.Reader
	buf     []byte // payload storage, reused across records
	pending []byte // unread remainder of the current record (aliases buf)
	stats   RecoverStats
	err     error // sticky: io.EOF past the valid prefix, or a read failure
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readBufSize)}
}

// Stats reports what the Reader has seen so far; after EOF it is the
// full scan outcome, mirroring Recover's accounting.
func (r *Reader) Stats() RecoverStats { return r.stats }

// Read implements io.Reader over the concatenated record payloads.
func (r *Reader) Read(p []byte) (int, error) {
	for len(r.pending) == 0 {
		rec, err := r.next()
		if err != nil {
			return 0, err
		}
		r.pending = rec
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

// next returns the next record's payload, valid until the following
// call, and keeps the accounting.
func (r *Reader) next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	payload, dropped, err := readFrame(r.br, r.buf)
	if err != nil {
		r.err = err
		r.stats.DroppedBytes = dropped
		r.stats.Truncated = dropped > 0
		return nil, err
	}
	r.buf = payload
	r.stats.Records++
	r.stats.GoodBytes += headerSize + int64(len(payload))
	return payload, nil
}

package dnsserver

import (
	"fmt"
	"io"
)

// This file is the log's disk I/O. The study's workflow separates
// collection from analysis: the authoritative server writes its query
// log to disk as JSON lines, and the analyses run offline over the file
// (possibly repeatedly, as new questions arise). The wire format and
// the per-record codec live in logcodec.go; the one read pipeline,
// which ForEachLogJSON runs at one worker, lives in parlog.go.

// WriteJSON streams the log's entries as JSON lines through the
// reflection-free encoder. It iterates under the log's lock instead
// of snapshotting, so streaming a large in-memory log does not double
// resident memory; concurrent Appends block until the write
// completes, which is the right trade for the collect-then-persist
// workflow (persist after the run, or behind an AsyncLog).
func (l *QueryLog) WriteJSON(w io.Writer) error {
	// Encode straight into one accumulation buffer flushed in large
	// writes — records never pass through an intermediate bufio copy.
	buf := make([]byte, 0, 64*1024)
	var werr error
	l.View(func(entries []LogEntry) {
		for i := range entries {
			buf = AppendLogJSON(buf, entries[i])
			if len(buf) >= 32*1024 {
				if _, werr = w.Write(buf); werr != nil {
					return
				}
				buf = buf[:0]
			}
		}
	})
	if werr == nil && len(buf) > 0 {
		_, werr = w.Write(buf)
	}
	if werr != nil {
		return fmt.Errorf("dnsserver: writing log: %w", werr)
	}
	return nil
}

// ForEachLogJSON streams a JSON-lines query log, calling fn once per
// record in file order: ParForEachLogJSONOrdered with one worker, which
// still reads the next chunk while that worker decodes, so a
// multi-gigabyte collection log is analyzed a 256 KiB chunk at a time
// and never held in memory whole.
func ForEachLogJSON(r io.Reader, fn func(LogEntry) error) error {
	return ParForEachLogJSONOrdered(r, 1, fn)
}

// blankLine reports whether the line holds only JSON whitespace.
func blankLine(b []byte) bool {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// ReadLogJSON parses a JSON-lines query log into memory.
func ReadLogJSON(r io.Reader) ([]LogEntry, error) {
	var out []LogEntry
	err := ForEachLogJSON(r, func(e LogEntry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

package dnsserver

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Parallel analysis ingest: the query log is a line-oriented format,
// so a stream can be split into newline-aligned chunks and decoded on
// a worker pool — the reader goroutine only finds newlines, all JSON
// scanning happens concurrently. An order-preserving merge then calls
// fn from a single goroutine in exact file order, so the parallel
// path is a drop-in for the serial one.

// parChunkSize is the newline-aligned chunk handed to each decode
// worker. Large enough to amortize channel traffic, small enough that
// workers*chunks in flight stay modest.
const parChunkSize = 256 * 1024

// logChunk is one newline-aligned slice of the stream.
type logChunk struct {
	idx       int
	firstLine int // 1-based line number of the chunk's first line
	buf       []byte
}

// decodedChunk is a worker's output for one chunk.
type decodedChunk struct {
	idx     int
	entries []LogEntry
	err     error
}

var (
	parBufPool   = sync.Pool{New: func() any { b := make([]byte, 0, parChunkSize); return &b }}
	parEntryPool = sync.Pool{New: func() any { s := make([]LogEntry, 0, 1024); return &s }}
)

// ParForEachLogJSONOrdered streams a JSON-lines query log like
// ForEachLogJSON but decodes on workers goroutines (<=0 means
// GOMAXPROCS; 1 is the serial path itself). fn is called from a
// single goroutine in exact file order, so it needs no locking and
// analyses that depend on arrival order (session reconstruction,
// fingerprint vectors) get identical results to the serial path.
// Decode errors carry the 1-based line number. A non-nil error from
// fn stops the scan and is returned unwrapped (first error wins).
//
// The entries of one 256 KiB chunk share storage: their string fields
// are slices of one string, their Rest values of one slab. fn may keep
// an entry or any of its strings, but a string kept past the scan keeps
// its whole chunk's strings alive (about 100 KB): clone
// (strings.Clone) the few you keep, such as a map key per MTA.
func ParForEachLogJSONOrdered(r io.Reader, workers int, fn func(LogEntry) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return ForEachLogJSON(r, fn)
	}

	var (
		chunks  = make(chan logChunk, workers)
		results = make(chan decodedChunk, workers)
		stop    = make(chan struct{})
		once    sync.Once
		failErr error
	)
	fail := func(err error) {
		once.Do(func() {
			failErr = err
			close(stop)
		})
	}

	// Reader: split the stream into newline-aligned chunks.
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		defer close(chunks)
		var carry []byte
		idx, line := 0, 1
		for {
			bp := parBufPool.Get().(*[]byte)
			buf := append((*bp)[:0], carry...)
			carry = carry[:0]
			buf, eof, err := fillChunk(r, buf, parChunkSize)
			if err != nil {
				fail(fmt.Errorf("dnsserver: reading log: %w", err))
				*bp = buf
				parBufPool.Put(bp)
				return
			}
			if !eof {
				cut := bytes.LastIndexByte(buf, '\n')
				for cut < 0 && !eof {
					// A line longer than a chunk: keep extending.
					buf, eof, err = fillChunk(r, buf, len(buf)+parChunkSize)
					if err != nil {
						fail(fmt.Errorf("dnsserver: reading log: %w", err))
						*bp = buf
						parBufPool.Put(bp)
						return
					}
					cut = bytes.LastIndexByte(buf, '\n')
				}
				if cut >= 0 && cut+1 < len(buf) {
					carry = append(carry, buf[cut+1:]...)
					buf = buf[:cut+1]
				}
			}
			*bp = buf
			if len(buf) == 0 {
				parBufPool.Put(bp)
			} else {
				select {
				case chunks <- logChunk{idx: idx, firstLine: line, buf: buf}:
				case <-stop:
					parBufPool.Put(bp)
					return
				}
				idx++
				line += bytes.Count(buf, []byte{'\n'})
			}
			if eof {
				return
			}
		}
	}()

	// Workers: decode chunks and hand them to the merge.
	var workWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			var p logLineParser
			for c := range chunks {
				ep := parEntryPool.Get().(*[]LogEntry)
				entries, err := decodeChunk(&p, c, *ep)
				*ep = entries
				if err != nil {
					fail(err)
				}
				select {
				case results <- decodedChunk{idx: c.idx, entries: entries, err: err}:
				case <-stop:
					putChunkEntries(ep)
				}
				parBufPool.Put(&c.buf)
				select {
				case <-stop:
					// Drain remaining chunks cheaply after a failure.
					for c := range chunks {
						parBufPool.Put(&c.buf)
					}
					return
				default:
				}
			}
		}()
	}

	// Ordered merge: deliver chunks in index order from this
	// goroutine.
	go func() {
		workWG.Wait()
		close(results)
	}()
	pending := make(map[int][]LogEntry)
	next := 0
	deliver := func(entries []LogEntry) {
		// Reading failErr directly would race the workers; observing
		// stop closed happens-after the failing write, so gate on it.
		select {
		case <-stop:
		default:
			for _, e := range entries {
				if err := fn(e); err != nil {
					fail(err)
					break
				}
			}
		}
		putChunkEntries(&entries)
	}
	for dc := range results {
		if dc.err != nil {
			putChunkEntries(&dc.entries)
			continue
		}
		pending[dc.idx] = dc.entries
		for {
			entries, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			deliver(entries)
		}
	}
	for idx, entries := range pending {
		delete(pending, idx)
		putChunkEntries(&entries)
	}
	readWG.Wait()
	return failErr
}

// fillChunk reads until len(buf) reaches target or the stream ends.
func fillChunk(r io.Reader, buf []byte, target int) (out []byte, eof bool, err error) {
	for len(buf) < target {
		if cap(buf) < target {
			grown := make([]byte, len(buf), target)
			copy(grown, buf)
			buf = grown
		}
		n, rerr := r.Read(buf[len(buf):target])
		buf = buf[:len(buf)+n]
		if rerr == io.EOF {
			return buf, true, nil
		}
		if rerr != nil {
			return buf, false, rerr
		}
	}
	return buf, false, nil
}

// decodeChunk parses every non-blank line of the chunk as one batch of
// the parser: the chunk's fast-tier string fields share one string, its
// Rest values one slab.
func decodeChunk(p *logLineParser, c logChunk, entries []LogEntry) ([]LogEntry, error) {
	entries = entries[:0]
	buf := c.buf
	lineNo := c.firstLine
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		var line []byte
		if nl < 0 {
			line, buf = buf, nil
		} else {
			line, buf = buf[:nl+1], buf[nl+1:]
		}
		if !blankLine(line) {
			var err error
			if entries, err = p.decode(entries, line); err != nil {
				p.settle(entries)
				return entries, fmt.Errorf("dnsserver: reading log line %d: %w", lineNo, err)
			}
		}
		lineNo++
	}
	p.settle(entries)
	return entries, nil
}

// putChunkEntries recycles a worker's entry slice. Entries are value
// types whose strings the caller may retain; only the slice header's
// backing array is reused, never the strings, so recycling is safe.
func putChunkEntries(entries *[]LogEntry) {
	clear(*entries)
	*entries = (*entries)[:0]
	parEntryPool.Put(entries)
}

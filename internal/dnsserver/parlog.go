package dnsserver

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// Query-log ingest: the log is a line-oriented format, so a stream is
// split into newline-aligned chunks and decoded on a worker pool — the
// reader goroutine only finds newlines, all JSON scanning happens on
// the workers. The caller's goroutine takes the chunks back in file
// order and calls fn, so one worker is the serial path and every worker
// count delivers the same entries in the same order.

// parChunkSize is the newline-aligned chunk handed to each decode
// worker. Large enough to amortize channel traffic, small enough that
// the chunks in flight stay modest.
const parChunkSize = 256 * 1024

// logChunk is one newline-aligned slice of the stream. The reader sends
// it to a worker and then, in file order, to the caller, which waits on
// done before it reads entries and err. Chunks are pooled, buffers and
// all, so a long scan stops allocating them.
type logChunk struct {
	firstLine int // 1-based line number of the chunk's first line
	buf       []byte
	entries   []LogEntry
	// err is the read error that ended the stream after this chunk, or
	// the decode error of its first bad line; entries holds what comes
	// before it.
	err  error
	done chan struct{} // the worker's token; buffered, so it is reused with the chunk
}

var chunkPool = sync.Pool{New: func() any {
	return &logChunk{buf: make([]byte, 0, parChunkSize), done: make(chan struct{}, 1)}
}}

// recycle returns c to the pool. Only the buffers are reused, never the
// strings the entries point into, which the caller may have kept.
func (c *logChunk) recycle() {
	clear(c.entries)
	c.entries, c.err = c.entries[:0], nil
	chunkPool.Put(c)
}

// ParForEachLogJSONOrdered streams a JSON-lines query log, calling fn
// once per record in file order, with the decoding spread over workers
// goroutines (<=0 means GOMAXPROCS). fn is called from the caller's
// goroutine, so it needs no locking, and analyses that depend on
// arrival order (session reconstruction, fingerprint vectors) get the
// same results at any worker count. Blank lines are skipped. A decode
// error carries the 1-based line number; a read error is wrapped as
// "dnsserver: reading log:". Either way fn has first seen every entry
// before the failure — a line cut short by a read error is dropped, a
// final line without a newline is not. A non-nil error from fn stops
// the scan and is returned unwrapped; fn is not called again.
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
	// work queues a chunk per worker. order holds two per worker, so the
	// reader can cut every worker's next chunk while the caller
	// delivers; it also bounds the chunks in flight to 2*workers + 2.
	var (
		work  = make(chan *logChunk, workers)
		order = make(chan *logChunk, 2*workers)
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)

	// Reader: cut the stream into newline-aligned chunks. Every chunk
	// goes to a worker and then to order, so the caller recycles it.
	go func() {
		defer close(order)
		defer close(work)
		var carry []byte
		line := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := chunkPool.Get().(*logChunk)
			buf, eof, err := fillChunk(r, append(c.buf[:0], carry...), parChunkSize)
			cut := bytes.LastIndexByte(buf, '\n')
			for cut < 0 && !eof && err == nil {
				// A line longer than a chunk: keep extending.
				buf, eof, err = fillChunk(r, buf, len(buf)+parChunkSize)
				cut = bytes.LastIndexByte(buf, '\n')
			}
			// Past the last newline is the next chunk's start, or, after
			// a read error, a cut-short line that is dropped.
			carry = carry[:0]
			if !eof {
				if err == nil {
					carry = append(carry, buf[cut+1:]...)
				}
				buf = buf[:cut+1]
			}
			c.firstLine, c.buf = line, buf
			if err != nil {
				c.err = fmt.Errorf("dnsserver: reading log: %w", err)
			}
			line += bytes.Count(buf, []byte{'\n'})
			// Workers and caller drain until these channels close, even
			// after stop, so neither send needs a stop case.
			work <- c
			order <- c
			if eof || err != nil {
				return
			}
		}
	}()

	// Workers: decode chunks, unless the scan has already failed.
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			var p logLineParser
			for c := range work {
				select {
				case <-stop:
				default:
					var err error
					if c.entries, err = decodeChunk(&p, c.firstLine, c.buf, c.entries); err != nil {
						c.err = err
					}
				}
				c.done <- struct{}{}
			}
		}()
	}

	// Caller: deliver each chunk's entries, then its error. The first
	// error stops the reader and workers; the rest is drained unread.
	var err error
	for c := range order {
		<-c.done
		if err == nil {
			for i := range c.entries {
				if err = fn(c.entries[i]); err != nil {
					break
				}
			}
			if err == nil {
				err = c.err
			}
			if err != nil {
				close(stop)
			}
		}
		c.recycle()
	}
	wg.Wait()
	return err
}

// fillChunk reads until len(buf) reaches target or the stream ends.
func fillChunk(r io.Reader, buf []byte, target int) (out []byte, eof bool, err error) {
	buf = slices.Grow(buf, target-len(buf))
	n, err := io.ReadFull(r, buf[len(buf):target])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return buf[:len(buf)+n], true, nil
	}
	return buf[:len(buf)+n], false, err
}

// decodeChunk parses every non-blank line of buf, whose first line is
// file line firstLine, as one batch of the parser: the chunk's
// fast-tier string fields share one string, its Rest values one slab.
// On a bad line it returns the entries before it and the error.
func decodeChunk(p *logLineParser, firstLine int, buf []byte, entries []LogEntry) ([]LogEntry, error) {
	entries = entries[:0]
	lineNo := firstLine
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

package smtp

import (
	"bufio"
	"io"
	"sync"
)

// A session is a handful of short lines, so its bufio pair is worth
// more recycled than collected: the server's sessions and the client
// draw from the same two pools.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

// getBuffers returns a pooled reader and writer attached to rw. Reset
// discards whatever the previous session left buffered, so no byte of
// one session can reach the next.
func getBuffers(rw io.ReadWriter) (*bufio.Reader, *bufio.Writer) {
	br := readerPool.Get().(*bufio.Reader)
	bw := writerPool.Get().(*bufio.Writer)
	br.Reset(rw)
	bw.Reset(rw)
	return br, bw
}

// putBuffers hands a session's buffers back. They are reset here too,
// so a pooled buffer neither holds its connection reachable nor keeps
// a session's unread bytes.
func putBuffers(br *bufio.Reader, bw *bufio.Writer) {
	br.Reset(nil)
	bw.Reset(nil)
	readerPool.Put(br)
	writerPool.Put(bw)
}

package jsonwire

import (
	"bufio"
	"bytes"
	"io"
)

// LineReader iterates over the lines of a JSONL stream, bufio.Scanner
// style but without a line-length limit: a line longer than the read
// buffer spills into a growing side buffer. A Scanner's token limit
// would turn one oversized garbage line (a torn write landing
// mid-buffer, a corrupted length run) into a failed read of the whole
// stream, where it should just be one more undecodable line.
type LineReader struct {
	br    *bufio.Reader
	spill []byte
	line  []byte
	err   error
	done  bool
}

// NewLineReader reads lines from r.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Next advances to the next line, returning false at the end of the
// stream or on a read error (see Err). A final line without a newline
// still counts; the empty remainder after a final newline does not.
func (lr *LineReader) Next() bool {
	if lr.done {
		return false
	}
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.spill = append(lr.spill[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = lr.br.ReadSlice('\n')
			lr.spill = append(lr.spill, line...)
		}
		line = lr.spill
	}
	if err != nil {
		lr.done = true
		if err != io.EOF {
			lr.err = err
			return false
		}
		if len(line) == 0 {
			return false
		}
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	lr.line = line
	return true
}

// Ready reports whether the next line is already in the read buffer,
// so that Next returns it without reading from the underlying reader.
func (lr *LineReader) Ready() bool {
	b, _ := lr.br.Peek(lr.br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// Bytes returns the current line without its "\n" or "\r\n"
// terminator. The slice is only valid until the next call to Next.
func (lr *LineReader) Bytes() []byte { return lr.line }

// Err returns the read error that ended the iteration, if any; io.EOF
// is not an error.
func (lr *LineReader) Err() error { return lr.err }

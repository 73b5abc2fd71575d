package jsonwire

import (
	"encoding/binary"
	"math/bits"
)

// Cursor walks one line in the canonical form the Append* encoders
// emit: no interior whitespace, plain ASCII strings. Every method
// reports ok=false on anything else, which means "not canonical",
// never "invalid" — its users, the query-log codec (fields in wire
// order) and the bulk SPF tuple decoder (keys in any order), then hand
// the line to json.Unmarshal, the authority on what the format
// accepts. So a decoder built on Cursor must agree with json.Unmarshal
// on every line it does accept, and nothing more.
type Cursor struct {
	in []byte
	i  int
}

// NewCursor starts at the beginning of line. One trailing newline is
// ignored: encoders emit it, line readers strip it, stream tails may
// lack it.
func NewCursor(line []byte) Cursor {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return Cursor{in: line}
}

// Lit consumes the exact literal s at the cursor, or nothing.
func (c *Cursor) Lit(s string) bool {
	if len(c.in)-c.i < len(s) || string(c.in[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// RawStr consumes a plain string — ASCII, no escapes, no control
// characters — up to and including its closing quote (the opening
// quote belongs to the preceding literal) and returns the contents,
// which alias the line.
//
// It scans eight bytes at a time: stopLanes marks every byte the byte
// loop would stop at, the first mark is the candidate closing quote,
// and the byte loop finishes the last few bytes.
func (c *Cursor) RawStr() ([]byte, bool) {
	// Locals, not c.i, in the scan loops: the cursor's address is
	// taken, so its fields live in memory.
	in, start := c.in, c.i
	i := start
	for ; i+8 <= len(in); i += 8 {
		if m := stopLanes(binary.LittleEndian.Uint64(in[i:])); m != 0 {
			i += bits.TrailingZeros64(m) >> 3
			return c.closeStr(start, i)
		}
	}
	for ; i < len(in); i++ {
		if b := in[i]; b == '"' || b == '\\' || b < 0x20 || b >= 0x80 {
			return c.closeStr(start, i)
		}
	}
	return nil, false
}

// closeStr ends RawStr at its first stop byte, in[i]: the string's
// closing quote, or a byte only json.Unmarshal may judge.
func (c *Cursor) closeStr(start, i int) ([]byte, bool) {
	if c.in[i] != '"' {
		return nil, false
	}
	c.i = i + 1
	return c.in[start:i], true
}

const (
	lanes7F = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
	lanes01 = 0x0101010101010101
)

// stopLanes sets bit 7 of each byte lane of w (little-endian: lane 0
// is the first byte) that holds '"', '\\', a byte below 0x20 or one at
// or above 0x80, and no other bit. Each test adds to the low seven bits
// of a lane only, so the sum stays below 0x100 and no carry crosses
// into the next lane: (y^q)+0x7f reaches bit 7 unless y == q, and
// y+0x60 reaches it unless y < 0x20.
func stopLanes(w uint64) uint64 {
	y := w & lanes7F
	ok := ((y ^ '"'*lanes01) + lanes7F) & ((y ^ '\\'*lanes01) + lanes7F) & (y + 0x60*lanes01)
	return (^ok | w) & lanes80
}

// End reports whether exactly the record's closing brace remains.
func (c *Cursor) End() bool {
	return c.i == len(c.in)-1 && c.in[c.i] == '}'
}

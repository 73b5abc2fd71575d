package jsonwire

// Cursor walks one line in the canonical form the Append* encoders
// emit: fields in wire order, no interior whitespace, plain ASCII
// strings. Every method reports ok=false on anything else, which means
// "not canonical", never "invalid" — the query-log codec (its one
// user) then hands the line to json.Unmarshal, the authority on what
// the format accepts. So a decoder built on Cursor must agree with
// json.Unmarshal on every line it does accept, and nothing more.
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
func (c *Cursor) RawStr() ([]byte, bool) {
	// Locals, not c.i, in the per-byte loop: the cursor's address is
	// taken, so its fields live in memory.
	in, start := c.in, c.i
	for i := start; i < len(in); i++ {
		b := in[i]
		if b == '"' {
			c.i = i + 1
			return in[start:i], true
		}
		if b == '\\' || b < 0x20 || b >= 0x80 {
			break
		}
	}
	return nil, false
}

// End reports whether exactly the record's closing brace remains.
func (c *Cursor) End() bool {
	return c.i == len(c.in)-1 && c.in[c.i] == '}'
}

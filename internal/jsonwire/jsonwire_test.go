package jsonwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// TestAppendStringMatchesJSON walks the escaping classes json.Marshal
// distinguishes; AppendString must reproduce its bytes for each.
func TestAppendStringMatchesJSON(t *testing.T) {
	var controls strings.Builder
	for c := 0; c < 0x20; c++ {
		controls.WriteByte(byte(c))
	}
	cases := []string{
		"",
		"plain ascii 0123 ~",
		"x.t07.m000042.spf-test.dns-lab.example.",
		`quote " backslash \ slash /`,
		"html <script>&amp;</script>",
		controls.String(),
		"\x7f", // DEL is not a control character to encoding/json
		"héllo 例え 😀",
		"line\u2028sep para\u2029sep",
		"bad \xff\xfe utf-8",
		"lone surrogate \xed\xa0\x80 bytes",
		"truncated rune \xe4\xbe",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q):\n got %s\nwant %s", s, got, want)
		}
	}
	// Appending extends dst instead of replacing it.
	if got := string(AppendString([]byte(`{"k":`), "v")); got != `{"k":"v"` {
		t.Errorf("AppendString onto a prefix = %s", got)
	}
}

// sameInstantAndZone is the equality a time.Time JSON round trip
// preserves: the instant plus the zone's name and offset.
func sameInstantAndZone(a, b time.Time) bool {
	an, ao := a.Zone()
	bn, bo := b.Zone()
	return a.Equal(b) && an == bn && ao == bo
}

func TestAppendTimeMatchesJSON(t *testing.T) {
	cases := []time.Time{
		time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC),
		time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		time.Date(2026, 8, 8, 12, 0, 0, 120000000, time.UTC), // trailing zeros trimmed
		time.Date(2024, 2, 29, 23, 59, 59, 1, time.UTC),
		time.Date(2026, 8, 8, 12, 0, 0, 5, time.FixedZone("", 19800)),
		time.Date(2026, 8, 8, 12, 0, 0, 0, time.FixedZone("", -8*3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
	for _, tm := range cases {
		want, err := json.Marshal(tm)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", tm, err)
		}
		got := AppendTime(nil, tm)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, want %s", tm, got, want)
		}
		back, ok := TryParseTime(got[1 : len(got)-1])
		if !ok {
			t.Errorf("TryParseTime rejected the encoder's own %s", got)
			continue
		}
		var ref time.Time
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !sameInstantAndZone(back, ref) {
			t.Errorf("TryParseTime(%s) = %v, json.Unmarshal gives %v", got, back, ref)
		}
	}
}

// TestTryParseTimeNeverDisagreesWithJSON pins the one-way contract the
// codecs' fallback rests on: TryParseTime may decline what
// time.Time.UnmarshalJSON accepts, but whatever it accepts, it decodes
// identically — and it accepts nothing UnmarshalJSON rejects.
func TestTryParseTimeNeverDisagreesWithJSON(t *testing.T) {
	cases := []struct {
		in       string
		mustTake bool // strict RFC 3339: the fast tiers rely on these
	}{
		{"2026-08-08T12:00:00Z", true},
		{"2026-08-08T12:00:00.5Z", true},
		{"2026-08-08T12:00:00.123456789Z", true},
		{"2026-08-08T12:00:00.1234567891234Z", true}, // digits past the ninth truncate
		{"2026-08-08T12:00:00+05:30", true},
		{"2026-08-08T12:00:00.25-08:00", true},
		{"2024-02-29T00:00:00Z", true},
		{"2000-02-29T00:00:00Z", true},
		{"2026-02-29T00:00:00Z", false}, // not a leap year
		{"1900-02-29T00:00:00Z", false}, // century rule
		{"2026-04-31T00:00:00Z", false},
		{"2026-13-01T00:00:00Z", false},
		{"2026-08-08T24:00:00Z", false},
		{"2026-08-08T12:60:00Z", false},
		{"2026-08-08T12:00:60Z", false},
		{"2026-08-08T12:00:00+24:00", false},
		{"2026-08-08T12:00:00.Z", false},
		{"2026-08-08T12:00:00,5Z", false}, // lax forms: declined, whatever the stdlib says
		{"2026-08-08T5:00:00Z", false},
		{"2026-08-08t12:00:00z", false},
		{"2026-08-08 12:00:00Z", false},
		{"2026-08-08T12:00:00", false},
		{"2026-08-08T12:00:0", false},
		{"2026-08-08T12:00:00+0530", false},
		{"", false},
	}
	for _, c := range cases {
		got, ok := TryParseTime([]byte(c.in))
		if ok != c.mustTake {
			t.Errorf("TryParseTime(%q) ok = %v, want %v", c.in, ok, c.mustTake)
		}
		var ref time.Time
		refErr := ref.UnmarshalJSON([]byte(`"` + c.in + `"`))
		if ok && refErr != nil {
			t.Errorf("TryParseTime(%q) accepted what UnmarshalJSON rejects: %v", c.in, refErr)
		}
		if ok && refErr == nil && !sameInstantAndZone(got, ref) {
			t.Errorf("TryParseTime(%q) = %v, UnmarshalJSON gives %v", c.in, got, ref)
		}
	}
}

func TestCursorLitAndStrings(t *testing.T) {
	c := NewCursor([]byte(`{"k":"plain","n":"5"}` + "\n"))
	if c.Lit(`{"x":"`) {
		t.Fatal("Lit matched a different literal")
	}
	if !c.Lit(`{"k":"`) {
		t.Fatal("Lit rejected the literal at the cursor (a failed Lit must not advance)")
	}
	if raw, ok := c.RawStr(); !ok || string(raw) != "plain" {
		t.Fatalf("RawStr = %q, %v", raw, ok)
	}
	if c.End() {
		t.Fatal("End true mid-record")
	}
	if !c.Lit(`,"n":"`) {
		t.Fatal("Lit after RawStr: cursor not past the closing quote")
	}
	if raw, ok := c.RawStr(); !ok || string(raw) != "5" {
		t.Fatalf("second RawStr = %q, %v", raw, ok)
	}
	if !c.End() {
		t.Fatal("End false at the closing brace (the trailing newline must not count)")
	}
	if c.Lit(`}}`) {
		t.Fatal("Lit matched past the end of the line")
	}

	// Everything that is not plain ASCII up to a closing quote is
	// declined, for json.Unmarshal to judge.
	for _, in := range []string{
		`esc\"aped"`, `tab` + "\t" + `"`, "nul\x00\"", `é"`, "bad\xff\"", `unterminated`, ``,
	} {
		c := NewCursor([]byte(in))
		if raw, ok := c.RawStr(); ok {
			t.Errorf("RawStr(%q) accepted %q", in, raw)
		}
	}
	for _, in := range []string{``, "\n", `}x`, `x}`, `}}`} {
		c := NewCursor([]byte(in))
		if c.End() {
			t.Errorf("End(%q) = true", in)
		}
	}
}

// refRawStr is RawStr as a byte loop, the reference its eight-byte
// scan must agree with.
func refRawStr(c *Cursor) ([]byte, bool) {
	for i := c.i; i < len(c.in); i++ {
		b := c.in[i]
		if b == '"' {
			s := c.in[c.i:i]
			c.i = i + 1
			return s, true
		}
		if b == '\\' || b < 0x20 || b >= 0x80 {
			break
		}
	}
	return nil, false
}

// FuzzRawStr holds RawStr's eight-byte scan to the byte loop: the same
// contents, the same cursor position and the same ok, from any start.
// The seeds put every stop byte in every lane of the first and second
// word, beside the two allowed bytes at the edges of the plain range.
func FuzzRawStr(f *testing.F) {
	for n := 0; n <= 17; n++ {
		f.Add(append(bytes.Repeat([]byte{'a'}, n), '"', 'z'), uint8(0))
		f.Add(bytes.Repeat([]byte{'a'}, n), uint8(0))
	}
	for _, stop := range []byte{'"', '\\', 0x00, 0x1f, 0x80, 0xff, 0x20, 0x7f} {
		for lane := 0; lane < 16; lane++ {
			in := bytes.Repeat([]byte{'a'}, 19)
			in[lane] = stop
			in[18] = '"'
			f.Add(in, uint8(0))
			f.Add(in, uint8(lane%3))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte, start uint8) {
		c := Cursor{in: in, i: int(start) % (len(in) + 1)}
		ref := c
		got, ok := c.RawStr()
		want, wantOK := refRawStr(&ref)
		if ok != wantOK || !bytes.Equal(got, want) || c.i != ref.i {
			t.Fatalf("RawStr(%q from %d) = %q, %v at %d; byte loop %q, %v at %d",
				in, start, got, ok, c.i, want, wantOK, ref.i)
		}
	})
}

// TestCursorAllocFree pins the shared primitives at zero allocations:
// the query-log codec's own pin (decode <= 2) budgets only for the
// strings it materializes.
func TestCursorAllocFree(t *testing.T) {
	line := []byte(`{"t":"2026-08-08T12:00:00.123456789Z","name":"x.t07.m42.example."}` + "\n")
	buf := make([]byte, 0, 256)
	when := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	allocs := testing.AllocsPerRun(100, func() {
		c := NewCursor(line)
		if !c.Lit(`{"t":"`) {
			t.Fatal("t key declined")
		}
		raw, ok := c.RawStr()
		if _, tok := TryParseTime(raw); !ok || !tok {
			t.Fatal("timestamp declined")
		}
		if !c.Lit(`,"name":"`) {
			t.Fatal("name key declined")
		}
		if _, ok := c.RawStr(); !ok || !c.End() {
			t.Fatal("name declined")
		}
		buf = AppendString(buf[:0], "x.t07.<m42>.example.")
		buf = AppendTime(buf, when)
	})
	if allocs != 0 {
		t.Errorf("cursor walk + encode into a reused buffer: %v allocs/op, want 0", allocs)
	}
}

func readAllLines(r io.Reader) (lines []string, err error) {
	lr := NewLineReader(r)
	for lr.Next() {
		lines = append(lines, string(lr.Bytes()))
	}
	return lines, lr.Err()
}

func TestLineReader(t *testing.T) {
	long := strings.Repeat("x", 200*1024) // several read buffers
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"empty", "", nil},
		{"terminated", "a\nb\n", []string{"a", "b"}},
		{"no trailing newline", "a\nb", []string{"a", "b"}},
		{"crlf", "a\r\nb\r\n", []string{"a", "b"}},
		{"crlf tail without newline", "a\r\nb\r", []string{"a", "b"}},
		{"interior cr kept", "a\rb\n", []string{"a\rb"}},
		{"blank lines", "\n\na\n\n", []string{"", "", "a", ""}},
		{"long line", "a\n" + long + "\nb\n", []string{"a", long, "b"}},
		{"long crlf tail", long + "\r\n" + long, []string{long, long}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := readAllLines(strings.NewReader(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("got %d lines %.40q, want %d lines %.40q", len(got), got, len(c.want), c.want)
			}
		})
	}

	// A line that spilled must not leak into the next, shorter one.
	got, err := readAllLines(strings.NewReader(long + "\nshort\n" + long + "\n"))
	if err != nil || len(got) != 3 || got[1] != "short" || got[2] != long {
		t.Errorf("spill reuse: %d lines, err %v", len(got), err)
	}

	// A read error ends the iteration, surfaces through Err, and drops
	// the partial line rather than passing it off as complete.
	boom := errors.New("disk on fire")
	got, err = readAllLines(io.MultiReader(strings.NewReader("a\npart"), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) {
		t.Errorf("Err = %v, want the read error", err)
	}
	if !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("lines before the read error: %q, want just a", got)
	}
	lr := NewLineReader(strings.NewReader("a"))
	for lr.Next() {
	}
	if lr.Next() || lr.Err() != nil {
		t.Errorf("Next after the end = true or Err = %v", lr.Err())
	}
}

// TestLineReaderReady pins what Ready promises a caller that must not
// block: true only while a whole line waits in the buffer.
func TestLineReaderReady(t *testing.T) {
	pr, pw := io.Pipe()
	defer pr.Close()
	lr := NewLineReader(pr)
	if lr.Ready() {
		t.Fatal("Ready before any read")
	}
	go func() { _, _ = pw.Write([]byte("a\nb\npart")) }()
	if !lr.Next() || string(lr.Bytes()) != "a" {
		t.Fatalf("first line %q", lr.Bytes())
	}
	if !lr.Ready() {
		t.Error("Ready = false with b buffered")
	}
	if !lr.Next() || string(lr.Bytes()) != "b" {
		t.Fatalf("second line %q", lr.Bytes())
	}
	if lr.Ready() {
		t.Error("Ready = true with only a partial line buffered")
	}
	go func() { _, _ = pw.Write([]byte("\n")); _ = pw.Close() }()
	if !lr.Next() || string(lr.Bytes()) != "part" {
		t.Fatalf("third line %q", lr.Bytes())
	}
}

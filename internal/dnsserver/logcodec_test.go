package dnsserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// refLogRecord mirrors the logRecord struct the encoding/json-based
// codec historically marshaled; the fuzz tests below pin the
// hand-rolled codec against it.
type refLogRecord struct {
	Time      time.Time `json:"t"`
	Name      string    `json:"name"`
	Type      string    `json:"type"`
	TestID    string    `json:"test,omitempty"`
	MTAID     string    `json:"mta,omitempty"`
	Rest      []string  `json:"rest,omitempty"`
	Transport string    `json:"via,omitempty"`
	OverIPv6  bool      `json:"v6,omitempty"`
	Remote    string    `json:"remote,omitempty"`
}

var refTypeByName = map[string]dns.Type{
	"A": dns.TypeA, "NS": dns.TypeNS, "CNAME": dns.TypeCNAME,
	"SOA": dns.TypeSOA, "PTR": dns.TypePTR, "MX": dns.TypeMX,
	"TXT": dns.TypeTXT, "AAAA": dns.TypeAAAA, "OPT": dns.TypeOPT,
	"SPF": dns.TypeSPF, "ANY": dns.TypeANY, "NONE": dns.TypeNone,
}

// refParseType mirrors dns.ParseType's semantics with independent code
// (map lookup plus strconv) so the fuzzer cross-checks dns.ParseType.
func refParseType(s string) (dns.Type, bool) {
	if t, ok := refTypeByName[s]; ok {
		return t, ok
	}
	if !strings.HasPrefix(s, "TYPE") || len(s) == 4 {
		return 0, false
	}
	for _, c := range s[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	v, err := strconv.ParseUint(s[4:], 10, 64)
	if err != nil || v > 0xFFFF {
		return 0, false
	}
	return dns.Type(v), true
}

// refDecodeLogLine is the reference decoder: encoding/json for the
// JSON layer, refParseType for type resolution.
func refDecodeLogLine(line []byte) (LogEntry, error) {
	var rec refLogRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return LogEntry{}, err
	}
	t, ok := refParseType(rec.Type)
	if !ok {
		return LogEntry{}, fmt.Errorf("unknown type %q", rec.Type)
	}
	return LogEntry{
		Time: rec.Time, Name: rec.Name, Type: t,
		TestID: rec.TestID, MTAID: rec.MTAID, Rest: rec.Rest,
		Transport: rec.Transport, OverIPv6: rec.OverIPv6, Remote: rec.Remote,
	}, nil
}

// refEncodeLogLine is the reference encoder: exactly what WriteJSON
// historically emitted per entry (json.Encoder appends the newline).
func refEncodeLogLine(e LogEntry) ([]byte, error) {
	rec := refLogRecord{
		Time: e.Time, Name: e.Name, Type: e.Type.String(),
		TestID: e.TestID, MTAID: e.MTAID, Rest: e.Rest,
		Transport: e.Transport, OverIPv6: e.OverIPv6, Remote: e.Remote,
	}
	b, err := json.Marshal(&rec)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func sameDecodedEntry(t *testing.T, got, want LogEntry) {
	t.Helper()
	if !got.Time.Equal(want.Time) {
		t.Errorf("Time: got %v, want %v", got.Time, want.Time)
	}
	gName, gOff := got.Time.Zone()
	wName, wOff := want.Time.Zone()
	if gName != wName || gOff != wOff {
		t.Errorf("Time zone: got %q/%d, want %q/%d", gName, gOff, wName, wOff)
	}
	got.Time, want.Time = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entry mismatch:\n got %#v\nwant %#v", got, want)
	}
}

// FuzzLogCodecEquivalence pins the hand-rolled line codec to the
// encoding/json reference: both decoders must agree on
// success/failure, successful decodes must produce identical entries
// (including nil-vs-empty Rest and time zone identity), and
// re-encoding a decoded entry must reproduce the reference encoder's
// bytes exactly.
func FuzzLogCodecEquivalence(f *testing.F) {
	f.Add([]byte(`{"t":"2026-08-08T12:00:00.123456789Z","name":"x.t7.m42.spf.example.test.","type":"TXT","test":"t7","mta":"m42","rest":["l1"],"via":"udp","v6":true,"remote":"198.51.100.7:53"}` + "\n"))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00+05:30","name":"a.","type":"A"}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"esc\"ape\\\/\u0041\u2028\ud83d\ude00.","type":"MX","remote":"[::1]:53"}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"héllo.例え.xn--r8jz45g.","type":"AAAA"}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:0`)) // truncated mid-timestamp
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"TYPE251"}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"TYPE12abc"}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"NONE"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"T":"2026-08-08T12:00:00Z","NAME":"fold.","TyPe":"A","V6":true}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"dup.","name":"wins.","type":"A","type":"NS"}`))
	f.Add([]byte(`{"t":null,"name":null,"type":"A","rest":null,"v6":null}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"A","rest":[]}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"A","rest":["a",null,"b"]}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"A","rest":["a"],"rest":null}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"A","extra":{"a":[1,-2.5e3,{"b":null,"c":false}]}}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"A","v6":false}`))
	f.Add([]byte("{\"t\":\"2026-08-08T12:00:00Z\",\"name\":\"bad\xff\xfe.\",\"type\":\"A\"}"))
	f.Add([]byte(`  {"t":"2026-08-08T12:00:00Z" , "name" : "ws." , "type" : "A" }  `))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","name":"x.","type":"A"}{"trailing":1}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			// The codec is handed single lines by construction; embedded
			// newlines never reach it.
			t.Skip()
		}
		var p logLineParser
		got, gotErr := p.parse(line)
		want, wantErr := refDecodeLogLine(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode disagreement on %q:\n codec: %v, %v\n   ref: %v, %v",
				line, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			sameDecodedEntry(t, got, want)
		}

		// The same line in a chunk, between two fast-tier lines: the
		// entries around it must keep their fields, whatever the fast
		// tier scanned into the arena before declining it.
		before := AppendLogJSON(nil, allocTestEntry())
		after := AppendLogJSON(nil, LogEntry{Time: logTestTime, Name: "after.", Type: dns.TypeMX, Rest: []string{"l9"}})
		chunk := append(append(append(append([]byte(nil), before...), line...), '\n'), after...)
		var around [2]LogEntry
		for i, l := range [][]byte{before, after} {
			var err error
			if around[i], err = refDecodeLogLine(l); err != nil {
				t.Fatal(err)
			}
		}
		entries, chunkErr := decodeChunk(&p, 1, chunk, nil)
		switch {
		case blankLine(line):
			if chunkErr != nil || len(entries) != 2 {
				t.Fatalf("chunk with a blank middle line: %d entries, %v", len(entries), chunkErr)
			}
			sameDecodedEntry(t, entries[0], around[0])
			sameDecodedEntry(t, entries[1], around[1])
		case wantErr != nil:
			if chunkErr == nil || !strings.Contains(chunkErr.Error(), "line 2:") {
				t.Fatalf("chunk decode error %v, want one at line 2", chunkErr)
			}
		default:
			if chunkErr != nil || len(entries) != 3 {
				t.Fatalf("chunk decode: %d entries, %v", len(entries), chunkErr)
			}
			sameDecodedEntry(t, entries[0], around[0])
			sameDecodedEntry(t, entries[1], want)
			sameDecodedEntry(t, entries[2], around[1])
		}
		if gotErr != nil {
			return
		}

		// Round trip: the hand-rolled encoder must reproduce the
		// encoding/json bytes for everything the decoder can produce.
		refBytes, err := refEncodeLogLine(got)
		if err != nil {
			t.Fatalf("reference re-encode failed: %v", err)
		}
		if gotBytes := AppendLogJSON(nil, got); !bytes.Equal(gotBytes, refBytes) {
			t.Errorf("encode mismatch:\n codec %q\n   ref %q", gotBytes, refBytes)
		}
	})
}

// FuzzAppendLogJSON pins the encoder against json.Marshal over
// arbitrary field contents — including invalid UTF-8, which both
// encoders must coerce to U+FFFD the same way.
func FuzzAppendLogJSON(f *testing.F) {
	f.Add(int64(1754654400), int64(123456789), true, "x.t7.m42.example.test.", "TXT", "t7", "m42", "l1", "udp", true, "198.51.100.7:53")
	f.Add(int64(0), int64(0), false, "", "", "", "", "", "", false, "")
	f.Add(int64(-62135596800), int64(1), true, "a\"b\\c\u2028d\u2029e<f>g&h", "TYPE65535", "\x00\x1f", "\xff\xfe", "é", "\b\f\n\r\t", true, "\xed\xa0\x80")
	f.Fuzz(func(t *testing.T, sec, nsec int64, utc bool, name, typ, test, mta, rest0, via string, v6 bool, remote string) {
		sec &= 0x3FFFFFFFF // keep the year within RFC 3339's range
		nsec = (nsec%1e9 + 1e9) % 1e9
		loc := time.FixedZone("", 19800)
		if utc {
			loc = time.UTC
		}
		e := LogEntry{
			Time: time.Unix(sec, nsec).In(loc), Name: name,
			TestID: test, MTAID: mta, Transport: via,
			OverIPv6: v6, Remote: remote,
		}
		if tt, ok := refParseType(typ); ok {
			e.Type = tt
		}
		if rest0 != "" {
			e.Rest = []string{rest0, ""}
		}
		refBytes, err := refEncodeLogLine(e)
		if err != nil {
			t.Skip() // unreachable for in-range years; guard anyway
		}
		gotBytes := AppendLogJSON(nil, e)
		if !bytes.Equal(gotBytes, refBytes) {
			t.Errorf("encode mismatch:\n codec %q\n   ref %q", gotBytes, refBytes)
		}
		// Round-trip the canonical bytes through parse — for plain
		// ASCII fields this drives parseFast, and for everything else
		// it must bail cleanly to the generic path with the same
		// result as encoding/json.
		ref, refErr := refDecodeLogLine(gotBytes)
		var p logLineParser
		got, gotErr := p.parse(gotBytes)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("roundtrip error mismatch: codec %v, ref %v (line %q)", gotErr, refErr, gotBytes)
		}
		if refErr == nil {
			sameDecodedEntry(t, got, ref)
		}
	})
}

// TestLogCodecTypeRoundTrip drives every possible Type value through
// encode and decode: known mnemonics and all TYPEn forms.
func TestLogCodecTypeRoundTrip(t *testing.T) {
	var p logLineParser
	buf := make([]byte, 0, 128)
	when := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i <= 0xFFFF; i++ {
		e := LogEntry{Time: when, Name: "x.", Type: dns.Type(i)}
		buf = AppendLogJSON(buf[:0], e)
		got, err := p.parse(buf)
		if err != nil {
			t.Fatalf("Type(%d): parse of %q failed: %v", i, buf, err)
		}
		if got.Type != e.Type {
			t.Fatalf("Type(%d): round-tripped to %d via %q", i, got.Type, buf)
		}
	}
}

// TestParseTypeStrict pins the intentional divergence from the old
// fmt.Sscanf("TYPE%d") decoder, which accepted trailing garbage.
func TestParseTypeStrict(t *testing.T) {
	cases := []struct {
		in string
		t  dns.Type
		ok bool
	}{
		{"A", dns.TypeA, true},
		{"NONE", dns.TypeNone, true},
		{"TYPE0", 0, true},
		{"TYPE251", 251, true},
		{"TYPE65535", 65535, true},
		{"TYPE00016", 16, true}, // leading zeros, like Sscanf
		{"TYPE65536", 0, false},
		{"TYPE999999999999999999999999", 0, false},
		{"TYPE12abc", 0, false}, // Sscanf accepted this
		{"TYPE", 0, false},
		{"TYPE-1", 0, false},
		{"TYPE+1", 0, false},
		{"TYPE 1", 0, false},
		{"type1", 0, false},
		{"", 0, false},
		{"MD", 0, false},
	}
	for _, c := range cases {
		got, ok := dns.ParseType([]byte(c.in))
		if ok != c.ok || got != c.t {
			t.Errorf("dns.ParseType(%q) = %d, %v; want %d, %v", c.in, got, ok, c.t, c.ok)
		}
	}
}

// TestLogFastTierTakesEncoderOutput pins the property the ingest
// numbers rest on: every line AppendLogJSON emits for plain-ASCII
// fields is decoded by the canonical fast tier (never by the
// json.Unmarshal fallback), and a field that needs escaping falls back
// and still decodes to exactly what encoding/json gives.
func TestLogFastTierTakesEncoderOutput(t *testing.T) {
	when := logTestTime
	plain := []LogEntry{
		{Time: when, Name: "x.", Type: dns.TypeA},
		{Time: when.Truncate(time.Second), Name: "", Type: dns.TypeNone},
		{Time: when.In(time.FixedZone("", 19800)), Name: "a.example.", Type: dns.Type(251)},
		{Time: when, Name: "l1.t07.m42.spf.example.test.", Type: dns.TypeTXT, TestID: "t07", MTAID: "m42"},
		{Time: when, Name: "x.", Type: dns.TypeMX, Rest: []string{"l1"}},
		{Time: when, Name: "x.", Type: dns.TypeMX, Rest: []string{"l1", "", "l3", "l4", "l5"}},
		{Time: when, Name: "x.", Type: dns.TypeAAAA, Transport: "tcp", OverIPv6: true},
		{Time: when, Name: "x.", Type: dns.TypeSPF, Remote: "[2001:db8::1]:53"},
		{Time: when, Name: "x.t07.m000042.spf-test.dns-lab.example.", Type: dns.TypeTXT,
			TestID: "t07", MTAID: "m000042", Rest: []string{"l1"}, Transport: "udp",
			OverIPv6: true, Remote: "198.51.100.7:53"},
		{Time: when, Name: "punctuation !#$%'()*+,-./:;=?@[]^_`{|}~ \x7f", Type: dns.TypeA},
	}
	var p logLineParser
	for _, e := range plain {
		line := AppendLogJSON(nil, e)
		for _, in := range [][]byte{line, line[:len(line)-1]} { // with and without the newline
			got, fast, err := parseTier(&p, in)
			if err != nil || !fast {
				t.Errorf("fast tier declined the encoder's own line %q (%v)", in, err)
				continue
			}
			want, err := refDecodeLogLine(in)
			if err != nil {
				t.Fatalf("reference decode of %q: %v", in, err)
			}
			sameDecodedEntry(t, got, want)
		}
	}

	for _, e := range escapedLogEntries {
		line := AppendLogJSON(nil, e)
		got, fast, err := parseTier(&p, line)
		if err != nil {
			t.Errorf("fallback failed on %q: %v", line, err)
			continue
		}
		if fast {
			t.Errorf("fast tier accepted a line with escapes: %q", line)
		}
		want, err := refDecodeLogLine(line)
		if err != nil {
			t.Fatalf("reference decode of %q: %v", line, err)
		}
		sameDecodedEntry(t, got, want)
	}
}

// escapedLogEntries each have a field the encoder escapes, so their
// lines are the json.Unmarshal tier's; several first scan fields into
// the arena that the decline must drop.
var escapedLogEntries = []LogEntry{
	{Time: logTestTime, Name: `esc"aped\.`, Type: dns.TypeA},
	{Time: logTestTime, Name: "<html>&.", Type: dns.TypeA},
	{Time: logTestTime, Name: "héllo.例え.", Type: dns.TypeA},
	{Time: logTestTime, Name: "x.", Type: dns.TypeA, TestID: "tab\there"},
	{Time: logTestTime, Name: "x.", Type: dns.TypeA, Rest: []string{"ok", "bad\xff"}},
	{Time: logTestTime, Name: "x.", Type: dns.TypeA, Remote: "line\u2028sep"},
}

var logTestTime = time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)

// parseTier decodes line as a batch of one, like parse, and reports
// whether the fast tier took it.
func parseTier(p *logLineParser, line []byte) (e LogEntry, fast bool, err error) {
	entries, err := p.decode(nil, line)
	if err != nil {
		return e, false, err
	}
	fast = len(p.lines) == 1
	p.settle(entries)
	return entries[0], fast, nil
}

// TestDecodeChunkMixedTiers decodes one chunk of canonical lines with
// fallback lines among them. Every entry must equal encoding/json's
// decode of its line: the fallback lines keep their own strings and
// the fast-tier lines after them still find theirs in the arena. An
// append to one entry's Rest must not reach the next entry's.
func TestDecodeChunkMixedTiers(t *testing.T) {
	_, plain := parTestLog(t, 40)
	var buf []byte
	var want []LogEntry
	for i, e := range plain {
		if i%8 == 3 {
			e = escapedLogEntries[(i/8)%len(escapedLogEntries)]
		}
		line := AppendLogJSON(nil, e)
		ref, err := refDecodeLogLine(line)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		want = append(want, ref)
	}
	var p logLineParser
	got, err := decodeChunk(&p, 1, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		sameDecodedEntry(t, got[i], want[i])
	}
	prev := -1
	for i, e := range got {
		if e.Rest == nil {
			continue
		}
		if prev >= 0 {
			first := e.Rest[0]
			_ = append(got[prev].Rest, "appended")
			if e.Rest[0] != first {
				t.Fatalf("appending to entry %d's Rest overwrote entry %d's: %q", prev, i, e.Rest[0])
			}
		}
		prev = i
	}
}

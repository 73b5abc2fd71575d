package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// sameTime compares wall-clock instant and zone identity, the
// equality encoding/json round-trips preserve.
func sameTime(t *testing.T, what string, got, want time.Time) {
	t.Helper()
	if !got.Equal(want) {
		t.Errorf("%s: got %v, want %v", what, got, want)
	}
	gName, gOff := got.Zone()
	wName, wOff := want.Zone()
	if gName != wName || gOff != wOff {
		t.Errorf("%s zone: got %q/%d, want %q/%d", what, gName, gOff, wName, wOff)
	}
}

// sameRecord compares records across a trip through the span stream:
// timestamps by instant and zone, everything else (including
// nil-vs-empty slice identity) structurally.
func sameRecord(t *testing.T, got, want Record) {
	t.Helper()
	sameTime(t, "Start", got.Start, want.Start)
	got.Start, want.Start = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record mismatch:\n got %#v\nwant %#v", got, want)
	}
}

// oneLine fails unless b is exactly one newline-terminated line — what
// lets the span stream be split on '\n' whatever the strings contain.
func oneLine(t *testing.T, b []byte) {
	t.Helper()
	if n := bytes.Count(b, []byte{'\n'}); n != 1 || b[len(b)-1] != '\n' {
		t.Fatalf("not exactly one newline-terminated line: %q", b)
	}
}

// FuzzTraceCodecEquivalence feeds ParseRecord foreign and hand-edited
// lines (reordered and case-folded keys, nulls, duplicates, unknown
// fields, whitespace, torn tails). Whatever it accepts must be
// equivalent to a line this package writes: AppendRecordJSON turns the
// decoded record into one canonical line, and that line decodes and
// re-encodes to the same bytes.
func FuzzTraceCodecEquivalence(f *testing.F) {
	f.Add([]byte(`{"trace":"0123456789abcdef0123456789abcdef","span":"0123456789abcdef","name":"resolver.exchange","start":"2026-08-08T12:00:00.123456789Z","dur_us":1500}`))
	f.Add([]byte(`{"trace":"00000000000000000000000000000001","span":"0000000000000001","parent":"00000000000000aa","name":"spf.mech","start":"2026-08-08T12:00:00+05:30","dur_us":0,"why":"slow","err":"deadline","attrs":[{"k":"dns.name","v":"a.example."},{"k":"n","v":"7"}]}`))
	f.Add([]byte(`{"trace":"x","span":"y","name":"esc\"ape\\\/\u0041\u2028\ud83d\ude00","start":"2026-08-08T12:00:00Z","dur_us":-12}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"TRACE":"t","SpAn":"s","NAME":"fold","START":"2026-08-08T12:00:00Z","DUR_US":3}`))
	f.Add([]byte(`{"trace":"dup","trace":"wins","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1}`))
	f.Add([]byte(`{"trace":null,"span":null,"name":null,"start":null,"dur_us":null,"attrs":null,"events":null}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1,"attrs":[]}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1,"attrs":[null,{"k":"a","v":"b","extra":1},{}]}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1,"attrs":[{"k":"a","v":"b"}],"attrs":null}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1,"events":[null,{"t":"2026-08-08T12:00:00Z","msg":"m"},{"MSG":"fold"}]}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1,"extra":{"a":[1,-2.5e3,{"b":null,"c":false}]}}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:0`)) // truncated mid-timestamp
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":007}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1.5}`))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":9223372036854775808}`))
	f.Add([]byte("{\"trace\":\"t\",\"span\":\"s\",\"name\":\"bad\xff\xfe\",\"start\":\"2026-08-08T12:00:00Z\",\"dur_us\":1}"))
	f.Add([]byte(`  {"trace":"t" , "span" : "s", "name":"ws", "start":"2026-08-08T12:00:00Z", "dur_us": 2 }  `))
	f.Add([]byte(`{"trace":"t","span":"s","name":"x","start":"2026-08-08T12:00:00Z","dur_us":1}{"trailing":1}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := ParseRecord(line)
		if err != nil {
			return
		}
		canon := AppendRecordJSON(nil, got)
		if len(canon) == 0 {
			return // a parsed year encoding/json will not write back
		}
		oneLine(t, canon)
		again, err := ParseRecord(canon)
		if err != nil {
			t.Fatalf("canonical line %q of accepted input %q does not decode: %v", canon, line, err)
		}
		if b := AppendRecordJSON(nil, again); !bytes.Equal(b, canon) {
			t.Errorf("re-encode not stable:\n first %q\nsecond %q", canon, b)
		}
	})
}

// FuzzAppendRecordJSON pins the span-stream line contract over
// arbitrary field contents — quotes, control bytes, U+2028, the HTML
// characters encoding/json escapes, invalid UTF-8: every record is
// written as exactly one line, and reading it back yields the same
// record (invalid UTF-8 coerced to U+FFFD, as encoding/json does).
func FuzzAppendRecordJSON(f *testing.F) {
	f.Add(int64(1754654400), int64(123456789), true,
		"0123456789abcdef0123456789abcdef", "0123456789abcdef", "00000000000000aa",
		"resolver.wire", int64(1500), "slow", "deadline exceeded", "dns.name", "a.example.")
	f.Add(int64(0), int64(0), false, "", "", "", "", int64(0), "", "", "", "")
	f.Add(int64(-62135596800), int64(1), true, "a\"b\\c\u2028d", "<f>&g", "\xff\xfe",
		"né.é", int64(-1), "\x00\x1f", "\xed\xa0\x80", "é", "\b\f\r\tm\u2029")
	f.Fuzz(func(t *testing.T, sec, nsec int64, utc bool,
		trace, span, parent, name string, durUS int64, why, errMsg, attrK, attrV string) {
		sec &= 0x3FFFFFFFF // keep the year within RFC 3339's range
		nsec = (nsec%1e9 + 1e9) % 1e9
		loc := time.FixedZone("", 19800)
		if utc {
			loc = time.UTC
		}
		// U+FFFD per invalid byte, encoding/json's coercion.
		valid := func(s string) string { return string([]rune(s)) }
		want := Record{
			Trace: valid(trace), Span: valid(span), Parent: valid(parent), Name: valid(name),
			Start: time.Unix(sec, nsec).In(loc), DurUS: durUS,
			Why: valid(why), Err: valid(errMsg),
		}
		r := want
		r.Trace, r.Span, r.Parent, r.Name, r.Why, r.Err = trace, span, parent, name, why, errMsg
		if attrK != "" {
			r.Attrs = []Attr{{K: attrK, V: attrV}, {}}
			want.Attrs = []Attr{{K: valid(attrK), V: valid(attrV)}, {}}
		}
		line := AppendRecordJSON(nil, r)
		oneLine(t, line)
		got, err := ParseRecord(line)
		if err != nil {
			t.Fatalf("own line %q does not decode: %v", line, err)
		}
		sameRecord(t, got, want)
	})
}

// TestAppendRecordJSON pins the bytes of one fully populated record
// (field order, omitempty, the escapes) and that a record
// encoding/json refuses appends nothing — the exporter counts that as
// a write error instead of framing a broken line.
func TestAppendRecordJSON(t *testing.T) {
	when := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	r := Record{
		Trace: "0123456789abcdef0123456789abcdef", Span: "0123456789abcdef", Parent: "00000000000000aa",
		Name: "resolver.wire", Start: when, DurUS: 1500, Why: "error", Err: "451 <greylisted> & deferred",
		Attrs: []Attr{{K: "dns.name", V: `a"b.example.`}},
	}
	const want = `{"trace":"0123456789abcdef0123456789abcdef","span":"0123456789abcdef","parent":"00000000000000aa",` +
		`"name":"resolver.wire","start":"2026-08-08T12:00:00.123456789Z","dur_us":1500,"why":"error",` +
		`"err":"451 \u003cgreylisted\u003e \u0026 deferred","attrs":[{"k":"dns.name","v":"a\"b.example."}]}` + "\n"
	if got := AppendRecordJSON([]byte("x"), r); string(got) != "x"+want {
		t.Errorf("line:\n got %q\nwant %q", got, "x"+want)
	}
	if got := AppendRecordJSON(nil, Record{Name: "bare", Start: when}); string(got) !=
		`{"trace":"","span":"","name":"bare","start":"2026-08-08T12:00:00.123456789Z","dur_us":0}`+"\n" {
		t.Errorf("bare record line: %q", got)
	}
	r.Start = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := AppendRecordJSON([]byte("x"), r); string(got) != "x" {
		t.Errorf("unencodable record appended %q, want nothing", got[1:])
	}
}

// TestRecordFamilyAndAttr covers the accessors cmd/analyze and the
// debug handler filter on.
func TestRecordFamilyAndAttr(t *testing.T) {
	r := Record{Name: "resolver.wire", Attrs: []Attr{{K: "a", V: "1"}, {K: "b", V: "2"}}}
	if got := r.Family(); got != "resolver" {
		t.Errorf("Family() = %q, want resolver", got)
	}
	if got := (&Record{Name: "spfcheck"}).Family(); got != "spfcheck" {
		t.Errorf("dotless Family() = %q, want spfcheck", got)
	}
	if got := r.Attr("b"); got != "2" {
		t.Errorf("Attr(b) = %q", got)
	}
	if got := r.Attr("missing"); got != "" {
		t.Errorf("Attr(missing) = %q, want empty", got)
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// refEncodeRecord is the reference encoder: exactly what a
// json.Encoder would emit for the Record struct, newline included.
func refEncodeRecord(r Record) ([]byte, error) {
	b, err := json.Marshal(&r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// refDecodeRecord is the reference decoder: plain encoding/json.
func refDecodeRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, err
	}
	return r, nil
}

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

// sameRecord compares decoded records the way the fuzz equivalence
// needs: timestamps by instant and zone, everything else (including
// nil-vs-empty slice identity) structurally.
func sameRecord(t *testing.T, got, want Record) {
	t.Helper()
	sameTime(t, "Start", got.Start, want.Start)
	got.Start, want.Start = time.Time{}, time.Time{}
	if len(got.Events) == len(want.Events) {
		for i := range got.Events {
			sameTime(t, "Event.T", got.Events[i].T, want.Events[i].T)
			got.Events[i].T, want.Events[i].T = time.Time{}, time.Time{}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record mismatch:\n got %#v\nwant %#v", got, want)
	}
}

// FuzzTraceCodecEquivalence pins ParseRecord to the encoding/json
// reference: both must agree on success/failure, successful decodes
// must be identical, and re-encoding a decoded record through
// AppendRecordJSON must reproduce the reference encoder's bytes.
func FuzzTraceCodecEquivalence(f *testing.F) {
	f.Add([]byte(`{"trace":"0123456789abcdef0123456789abcdef","span":"0123456789abcdef","name":"resolver.exchange","start":"2026-08-08T12:00:00.123456789Z","dur_us":1500}`))
	f.Add([]byte(`{"trace":"00000000000000000000000000000001","span":"0000000000000001","parent":"00000000000000aa","name":"spf.mech","start":"2026-08-08T12:00:00+05:30","dur_us":0,"why":"slow","err":"deadline","attrs":[{"k":"dns.name","v":"a.example."},{"k":"n","v":"7"}],"events":[{"t":"2026-08-08T12:00:00Z","msg":"retry"}]}`))
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
		if bytes.IndexByte(line, '\n') >= 0 {
			// The codec is handed single lines by construction; embedded
			// newlines never reach it. (The fast tier's optional-trailing-
			// newline acceptance is pinned separately below.)
			t.Skip()
		}
		got, gotErr := ParseRecord(line)
		want, wantErr := refDecodeRecord(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode disagreement on %q:\n codec: %+v, %v\n   ref: %+v, %v",
				line, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			return
		}
		sameRecord(t, got, want)

		refBytes, err := refEncodeRecord(got)
		if err != nil {
			t.Fatalf("reference re-encode failed: %v", err)
		}
		if gotBytes := AppendRecordJSON(nil, got); !bytes.Equal(gotBytes, refBytes) {
			t.Errorf("encode mismatch:\n codec %q\n   ref %q", gotBytes, refBytes)
		}
	})
}

// FuzzAppendRecordJSON pins the encoder against json.Marshal over
// arbitrary field contents — including invalid UTF-8 and the HTML
// characters encoding/json escapes — then round-trips the canonical
// bytes through both decoders. Canonical ASCII inputs drive the fast
// tier; everything else must bail cleanly to the generic parser with
// the same outcome.
func FuzzAppendRecordJSON(f *testing.F) {
	f.Add(int64(1754654400), int64(123456789), true,
		"0123456789abcdef0123456789abcdef", "0123456789abcdef", "00000000000000aa",
		"resolver.wire", int64(1500), "slow", "deadline exceeded", "dns.name", "a.example.", "retry")
	f.Add(int64(0), int64(0), false, "", "", "", "", int64(0), "", "", "", "", "")
	f.Add(int64(-62135596800), int64(1), true, "a\"b\\c\u2028d", "<f>&g", "\xff\xfe",
		"né.é", int64(-1), "\x00\x1f", "\xed\xa0\x80", "é", "\b\f\r\t", "m\u2029")
	f.Fuzz(func(t *testing.T, sec, nsec int64, utc bool,
		trace, span, parent, name string, durUS int64, why, errMsg, attrK, attrV, eventMsg string) {
		sec &= 0x3FFFFFFFF // keep the year within RFC 3339's range
		nsec = (nsec%1e9 + 1e9) % 1e9
		loc := time.FixedZone("", 19800)
		if utc {
			loc = time.UTC
		}
		r := Record{
			Trace: trace, Span: span, Parent: parent, Name: name,
			Start: time.Unix(sec, nsec).In(loc), DurUS: durUS,
			Why: why, Err: errMsg,
		}
		if attrK != "" {
			r.Attrs = []Attr{{K: attrK, V: attrV}, {}}
		}
		if eventMsg != "" {
			r.Events = []Event{{T: r.Start, Msg: eventMsg}}
		}
		refBytes, err := refEncodeRecord(r)
		if err != nil {
			t.Skip() // unreachable for in-range years; guard anyway
		}
		gotBytes := AppendRecordJSON(nil, r)
		if !bytes.Equal(gotBytes, refBytes) {
			t.Errorf("encode mismatch:\n codec %q\n   ref %q", gotBytes, refBytes)
		}
		ref, refErr := refDecodeRecord(gotBytes)
		got, gotErr := ParseRecord(gotBytes)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("roundtrip error mismatch: codec %v, ref %v (line %q)", gotErr, refErr, gotBytes)
		}
		if refErr == nil {
			sameRecord(t, got, ref)
		}
	})
}

// TestParseRecordFastNewlineOptional pins that the fast tier accepts
// the encoder's lines with or without the trailing newline — scanner
// callers strip it, stream tails may not have one.
func TestParseRecordFastNewlineOptional(t *testing.T) {
	r := Record{
		Trace: "0123456789abcdef0123456789abcdef", Span: "0123456789abcdef",
		Name: "resolver.wire", Start: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		DurUS: 42, Attrs: []Attr{{K: "dns.name", V: "a.example."}},
	}
	line := AppendRecordJSON(nil, r)
	for _, in := range [][]byte{line, line[:len(line)-1]} {
		got, ok := parseRecordFast(in)
		if !ok {
			t.Fatalf("fast tier rejected canonical line %q", in)
		}
		sameRecord(t, got, r)
	}
}

// TestRecordFastTierTakesEncoderOutput pins the property span-stream
// loading rests on: every line AppendRecordJSON emits for plain-ASCII
// fields is decoded by the canonical fast tier, and a field that needs
// escaping falls back to json.Unmarshal and still decodes identically.
func TestRecordFastTierTakesEncoderOutput(t *testing.T) {
	when := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	base := Record{
		Trace: "0123456789abcdef0123456789abcdef", Span: "0123456789abcdef",
		Name: "resolver.wire", Start: when, DurUS: 42,
	}
	with := func(edit func(*Record)) Record {
		r := base
		edit(&r)
		return r
	}
	plain := []Record{
		base,
		{Start: when.Truncate(time.Second)},
		with(func(r *Record) { r.Parent = "00000000000000aa"; r.DurUS = 0 }),
		with(func(r *Record) { r.DurUS = -9223372036854775808 }),
		with(func(r *Record) { r.Start = when.In(time.FixedZone("", 19800)) }),
		with(func(r *Record) { r.Why = "slow" }),
		with(func(r *Record) { r.Why = "error"; r.Err = "context deadline exceeded" }),
		with(func(r *Record) { r.Attrs = []Attr{{K: "dns.name", V: "a.example."}} }),
		with(func(r *Record) { r.Attrs = []Attr{{K: "dns.name", V: "a.example."}, {}, {K: "n", V: "7"}} }),
		with(func(r *Record) { r.Events = []Event{{T: when, Msg: "retry"}, {T: when.Add(time.Second)}} }),
		with(func(r *Record) {
			r.Parent, r.Why, r.Err = "00000000000000aa", "slow", "timeout"
			r.Attrs = []Attr{{K: "dns.type", V: "TXT"}}
			r.Events = []Event{{T: when, Msg: "tcp fallback"}}
		}),
	}
	for _, r := range plain {
		line := AppendRecordJSON(nil, r)
		got, ok := parseRecordFast(line)
		if !ok {
			t.Errorf("fast tier declined the encoder's own line %q", line)
			continue
		}
		want, err := refDecodeRecord(line)
		if err != nil {
			t.Fatalf("reference decode of %q: %v", line, err)
		}
		sameRecord(t, got, want)
	}

	escaped := []Record{
		with(func(r *Record) { r.Name = `esc"aped\` }),
		with(func(r *Record) { r.Err = "451 <greylisted> & deferred" }),
		with(func(r *Record) { r.Attrs = []Attr{{K: "dns.name", V: "héllo.例え."}} }),
		with(func(r *Record) { r.Events = []Event{{T: when, Msg: "multi\nline"}} }),
		with(func(r *Record) { r.Why = "bad\xff" }),
	}
	for _, r := range escaped {
		line := AppendRecordJSON(nil, r)
		if _, ok := parseRecordFast(line); ok {
			t.Errorf("fast tier accepted a line with escapes: %q", line)
		}
		got, err := ParseRecord(line)
		if err != nil {
			t.Errorf("fallback failed on %q: %v", line, err)
			continue
		}
		want, err := refDecodeRecord(line)
		if err != nil {
			t.Fatalf("reference decode of %q: %v", line, err)
		}
		sameRecord(t, got, want)
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

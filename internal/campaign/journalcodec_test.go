package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzJournalCodecEquivalence pins the journal's hand-rolled codec to
// the encoding/json reference the wire format is defined by: decoders
// must agree on success/failure and produce identical events, and
// re-encoding a decoded event must reproduce json.Marshal's bytes.
func FuzzJournalCodecEquivalence(f *testing.F) {
	f.Add([]byte(`{"t":"2026-08-08T12:00:00.123456789Z","ev":"retry","k":{"mta":"example.com","test":"t07"},"n":2,"err":"dial tcp: timeout","delay_ms":30000}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","ev":"enqueue","k":{"mta":"a","test":"b"}}`))
	f.Add([]byte(`{"t":"2026-08-08T12:00:00Z","ev":"done","k":{"test":"swap","mta":"péll\u00f6.example"},"n":1}`))
	f.Add([]byte(`{"t":null,"ev":null,"k":null,"n":null}`))
	f.Add([]byte(`{"EV":"attempt","K":{"MTA":"fold"},"N":3,"DELAY_MS":7}`))
	f.Add([]byte(`{"ev":"custom-kind","k":{"mta":"x","extra":[1,2,{"y":null}]}}`))
	f.Add([]byte(`{"n":9223372036854775807,"delay_ms":-9223372036854775808}`))
	f.Add([]byte(`{"n":1.5}`))
	f.Add([]byte(`{"n":1e3}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"t":"2026-08-08T12:0`)) // torn crash-time write
	f.Add([]byte(`{"ev":"done","k":{"mta":"a"},"k":{"test":"b"}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Skip() // the scanner hands the codec single lines
		}
		var p eventParser
		got, gotErr := p.parse(line)
		var want event
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode disagreement on %q:\n codec: %+v, %v\n   ref: %+v, %v",
				line, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			return
		}
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
			t.Fatalf("event mismatch on %q:\n got %+v\nwant %+v", line, got, want)
		}

		refBytes, err := json.Marshal(&got)
		if err != nil {
			t.Fatalf("reference re-encode failed: %v", err)
		}
		refBytes = append(refBytes, '\n')
		if gotBytes := appendEventJSON(nil, &got); !bytes.Equal(gotBytes, refBytes) {
			t.Errorf("encode mismatch:\n codec %q\n   ref %q", gotBytes, refBytes)
		}
	})
}

// TestEventParseAllocBudget pins replay's per-line cost: a known
// event kind is interned and both key strings share one backing
// allocation.
func TestEventParseAllocBudget(t *testing.T) {
	e := event{
		Time:    time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Ev:      evRetry,
		Key:     Key{MTA: "example.com", Test: "t07"},
		N:       2,
		Err:     "dial tcp: timeout",
		DelayMS: 30000,
	}
	line := appendEventJSON(nil, &e)
	var p eventParser
	if _, err := p.parse(line); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.parse(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("parse with reused parser: %v allocs/op, want <= 1 (backing string)", allocs)
	}
}

func TestAppendEventJSONZeroAlloc(t *testing.T) {
	e := event{
		Time: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Ev:   evDone,
		Key:  Key{MTA: "example.com", Test: "t07"},
		N:    1,
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendEventJSON(buf[:0], &e)
	})
	if allocs != 0 {
		t.Errorf("appendEventJSON into reused buffer: %v allocs/op, want 0", allocs)
	}
}

// TestEventFastTierTakesEncoderOutput pins the property replay's cost
// rests on: every line appendEventJSON emits for plain-ASCII fields is
// decoded by the canonical fast tier, and a field that needs escaping
// falls back to json.Unmarshal and still decodes identically.
func TestEventFastTierTakesEncoderOutput(t *testing.T) {
	when := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	sameEvent := func(t *testing.T, line []byte, got event) {
		t.Helper()
		var want event
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("reference decode of %q: %v", line, err)
		}
		gName, gOff := got.Time.Zone()
		wName, wOff := want.Time.Zone()
		if !got.Time.Equal(want.Time) || gName != wName || gOff != wOff {
			t.Errorf("Time: got %v, want %v", got.Time, want.Time)
		}
		got.Time, want.Time = time.Time{}, time.Time{}
		if got != want {
			t.Errorf("event mismatch on %q:\n got %+v\nwant %+v", line, got, want)
		}
	}

	plain := []event{
		{Time: when, Ev: evEnqueue, Key: Key{MTA: "example.com", Test: "t07"}},
		{Time: when, Ev: evAttempt, Key: Key{MTA: "example.com", Test: "t07"}, N: 1},
		{Time: when, Ev: evRetry, Key: Key{MTA: "example.com", Test: "t07"}, N: 2,
			Err: "dial tcp 192.0.2.1:25: i/o timeout", DelayMS: 30000},
		{Time: when, Ev: evDone, Key: Key{MTA: "m000042", Test: "t39"}, N: 3},
		{Time: when, Ev: evFailed, Key: Key{MTA: "m1", Test: "t01"}, N: 5, Err: "gave up"},
		{Time: when, Ev: evRetry, Key: Key{MTA: "m1", Test: "t01"}, N: -1, DelayMS: -9223372036854775808},
		{Time: when.In(time.FixedZone("", -8*3600)), Ev: "custom-kind", Key: Key{}},
		{Time: when.Truncate(time.Second), Ev: "", Key: Key{MTA: "", Test: "only-test"}, DelayMS: 7},
	}
	var p eventParser
	for i := range plain {
		line := appendEventJSON(nil, &plain[i])
		for _, in := range [][]byte{line, line[:len(line)-1]} { // with and without the newline
			got, ok := p.parseFast(in)
			if !ok {
				t.Errorf("fast tier declined the encoder's own line %q", in)
				continue
			}
			sameEvent(t, in, got)
		}
	}

	escaped := []event{
		{Time: when, Ev: evRetry, Key: Key{MTA: "m1", Test: "t01"}, N: 1, Err: `read: "quoted" reply`},
		{Time: when, Ev: evRetry, Key: Key{MTA: "m1", Test: "t01"}, N: 1, Err: "451 4.7.1 <greylisted>"},
		{Time: when, Ev: evDone, Key: Key{MTA: "péllö.example", Test: "t01"}, N: 1},
		{Time: when, Ev: evDone, Key: Key{MTA: "m1", Test: "bad\xff"}, N: 1},
		{Time: when, Ev: "multi\nline", Key: Key{MTA: "m1", Test: "t01"}},
	}
	for i := range escaped {
		line := appendEventJSON(nil, &escaped[i])
		if _, ok := p.parseFast(line); ok {
			t.Errorf("fast tier accepted a line with escapes: %q", line)
		}
		got, err := p.parse(line)
		if err != nil {
			t.Errorf("fallback failed on %q: %v", line, err)
			continue
		}
		sameEvent(t, line, got)
	}
}

package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzJournalCodecEquivalence pins the journal's hand-rolled encoder
// to the encoding/json reference the wire format is defined by: any
// event json.Unmarshal can produce, appendEventJSON must write with
// json.Marshal's exact bytes. (Decoding is json.Unmarshal itself.)
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
		var got event
		if err := json.Unmarshal(line, &got); err != nil {
			return
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

package trace

import (
	"encoding/json"
	"strings"
	"time"
)

// The span stream's JSONL wire format is what encoding/json produces
// for the Record struct, one record per line:
//
//	{"trace":<32hex>,"span":<16hex>,"parent":<16hex,omitempty>,
//	 "name":<string>,"start":<RFC3339Nano>,"dur_us":<int>,
//	 "why":<string,omitempty>,"err":<string,omitempty>,
//	 "attrs":<[]Attr,omitempty>}
//
// and encoding/json is also what writes and reads it. No benchmark
// workload encodes or decodes a span record — the exporter goroutine
// is off every hot path and `cmd/analyze -trace` reads a file once —
// so, unlike the query log (dnsserver/logcodec.go) and the journal's
// write side (campaign/journalcodec.go), nothing here is hand-written.

// Record is one exported span as serialized to the span stream.
type Record struct {
	Trace  string    `json:"trace"`
	Span   string    `json:"span"`
	Parent string    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	DurUS  int64     `json:"dur_us"`
	// Why says how an unsampled span earned export: "slow" or
	// "error". Head-sampled spans leave it empty.
	Why   string `json:"why,omitempty"`
	Err   string `json:"err,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr is one serialized span attribute.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Family returns the span-name prefix before the first dot — the
// instrumented subsystem ("resolver", "spf", "dns", ...).
func (r *Record) Family() string {
	if i := strings.IndexByte(r.Name, '.'); i >= 0 {
		return r.Name[:i]
	}
	return r.Name
}

// Attr returns the value of the named attribute, or "".
func (r *Record) Attr(k string) string {
	for _, a := range r.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// AppendRecordJSON appends r as one span-stream line — json.Marshal(r)
// and a trailing newline — to dst. A record encoding/json refuses (a
// timestamp outside years 0–9999) appends nothing.
func AppendRecordJSON(dst []byte, r Record) []byte {
	line, err := json.Marshal(r)
	if err != nil {
		return dst
	}
	return append(append(dst, line...), '\n')
}

// ParseRecord decodes one span-stream line.
func ParseRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, err
	}
	return r, nil
}

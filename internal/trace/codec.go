package trace

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"sendervalid/internal/jsonwire"
)

// The span stream's JSONL wire format, defined (like the query log
// and the campaign journal) to be exactly what encoding/json would
// produce for the Record struct — fuzz tests pin the equivalence
// byte for byte:
//
//	{"trace":<32hex>,"span":<16hex>,"parent":<16hex,omitempty>,
//	 "name":<string>,"start":<RFC3339Nano>,"dur_us":<int>,
//	 "why":<string,omitempty>,"err":<string,omitempty>,
//	 "attrs":<[]Attr,omitempty>,"events":<[]Event,omitempty>}
//
// one record per line. Encoding goes through a hand-rolled append
// path (no reflection) on the exporter goroutine; decoding is
// two-tier like the query-log codec — a fast scanner for the
// canonical bytes this encoder emits, with json.Unmarshal as the
// authority for foreign or hand-edited files.

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
	Why    string  `json:"why,omitempty"`
	Err    string  `json:"err,omitempty"`
	Attrs  []Attr  `json:"attrs,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Attr is one serialized span attribute.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is one serialized span event.
type Event struct {
	T   time.Time `json:"t"`
	Msg string    `json:"msg"`
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

// AppendRecordJSON encodes r as one span-stream JSON line — trailing
// newline included — and appends it to dst. The bytes before the
// newline are identical to json.Marshal(r). Timestamps are assumed
// to be in the RFC 3339 year range [0,9999], always true for
// clock-derived or stream-parsed times.
func AppendRecordJSON(dst []byte, r Record) []byte {
	dst = append(dst, `{"trace":`...)
	dst = jsonwire.AppendString(dst, r.Trace)
	dst = append(dst, `,"span":`...)
	dst = jsonwire.AppendString(dst, r.Span)
	if r.Parent != "" {
		dst = append(dst, `,"parent":`...)
		dst = jsonwire.AppendString(dst, r.Parent)
	}
	dst = append(dst, `,"name":`...)
	dst = jsonwire.AppendString(dst, r.Name)
	dst = append(dst, `,"start":`...)
	dst = jsonwire.AppendTime(dst, r.Start)
	dst = append(dst, `,"dur_us":`...)
	dst = strconv.AppendInt(dst, r.DurUS, 10)
	if r.Why != "" {
		dst = append(dst, `,"why":`...)
		dst = jsonwire.AppendString(dst, r.Why)
	}
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = jsonwire.AppendString(dst, r.Err)
	}
	if len(r.Attrs) > 0 {
		dst = append(dst, `,"attrs":[`...)
		for i, a := range r.Attrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"k":`...)
			dst = jsonwire.AppendString(dst, a.K)
			dst = append(dst, `,"v":`...)
			dst = jsonwire.AppendString(dst, a.V)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.Events) > 0 {
		dst = append(dst, `,"events":[`...)
		for i, e := range r.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"t":`...)
			dst = jsonwire.AppendTime(dst, e.T)
			dst = append(dst, `,"msg":`...)
			dst = jsonwire.AppendString(dst, e.Msg)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

// ParseRecord decodes one span-stream line, accepting exactly what
// json.Unmarshal into a Record accepts.
func ParseRecord(line []byte) (Record, error) {
	if r, ok := parseRecordFast(line); ok {
		return r, nil
	}
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, err
	}
	return r, nil
}

// parseRecordFast decodes the canonical encoding AppendRecordJSON
// emits: fields in wire order, no interior whitespace, plain ASCII
// strings. ok=false means "not canonical", not "invalid" —
// json.Unmarshal is the authority.
func parseRecordFast(line []byte) (Record, bool) {
	f := jsonwire.NewCursor(line)
	var r Record
	var ok bool
	if !f.Lit(`{"trace":"`) {
		return r, false
	}
	if r.Trace, ok = f.Str(); !ok {
		return r, false
	}
	if !f.Lit(`,"span":"`) {
		return r, false
	}
	if r.Span, ok = f.Str(); !ok {
		return r, false
	}
	if f.Lit(`,"parent":"`) {
		if r.Parent, ok = f.Str(); !ok {
			return r, false
		}
	}
	if !f.Lit(`,"name":"`) {
		return r, false
	}
	if r.Name, ok = f.Str(); !ok {
		return r, false
	}
	if !f.Lit(`,"start":"`) {
		return r, false
	}
	raw, ok := f.RawStr()
	if !ok {
		return r, false
	}
	if r.Start, ok = jsonwire.TryParseTime(raw); !ok {
		return r, false
	}
	if !f.Lit(`,"dur_us":`) {
		return r, false
	}
	if r.DurUS, ok = f.Int(); !ok {
		return r, false
	}
	if f.Lit(`,"why":"`) {
		if r.Why, ok = f.Str(); !ok {
			return r, false
		}
	}
	if f.Lit(`,"err":"`) {
		if r.Err, ok = f.Str(); !ok {
			return r, false
		}
	}
	if f.Lit(`,"attrs":[`) {
		for {
			var a Attr
			if !f.Lit(`{"k":"`) {
				return r, false
			}
			if a.K, ok = f.Str(); !ok {
				return r, false
			}
			if !f.Lit(`,"v":"`) {
				return r, false
			}
			if a.V, ok = f.Str(); !ok {
				return r, false
			}
			if !f.Lit(`}`) {
				return r, false
			}
			r.Attrs = append(r.Attrs, a)
			if f.Lit(`,`) {
				continue
			}
			if f.Lit(`]`) {
				break
			}
			return r, false
		}
	}
	if f.Lit(`,"events":[`) {
		for {
			var e Event
			if !f.Lit(`{"t":"`) {
				return r, false
			}
			if raw, ok = f.RawStr(); !ok {
				return r, false
			}
			if e.T, ok = jsonwire.TryParseTime(raw); !ok {
				return r, false
			}
			if !f.Lit(`,"msg":"`) {
				return r, false
			}
			if e.Msg, ok = f.Str(); !ok {
				return r, false
			}
			if !f.Lit(`}`) {
				return r, false
			}
			r.Events = append(r.Events, e)
			if f.Lit(`,`) {
				continue
			}
			if f.Lit(`]`) {
				break
			}
			return r, false
		}
	}
	return r, f.End()
}

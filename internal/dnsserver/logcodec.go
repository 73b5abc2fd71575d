package dnsserver

import (
	"encoding/json"
	"fmt"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/jsonwire"
)

// logRecord defines the query log's JSONL wire format, one record per
// line, fixed since the format was introduced: it is what encoding/json
// produces and accepts for this struct (Type holding the mnemonic or
// the RFC 3597 TYPEn form). Every line the servers write goes through
// two hand-rolled paths that fuzz tests pin to that definition byte
// for byte, so the collect-and-analyze loop keeps up with the
// allocation-free serving path: AppendLogJSON encodes with zero
// allocations into a reused buffer, and parseFast decodes the
// encoder's own canonical output a batch of lines at a time in two
// allocations per batch (one string shared by every string field, one
// slab shared by every Rest). Anything else — a hand-edited or foreign
// log — is decoded by json.Unmarshal into this struct.
type logRecord struct {
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

// AppendLogJSON encodes e as one query-log JSON line — including the
// trailing newline — and appends it to dst, returning the extended
// buffer. The bytes are identical to what the encoding/json-based
// writer historically produced. Timestamps are assumed to be in the
// RFC 3339 year range [0,9999], which holds for every clock-derived
// or log-parsed time.
func AppendLogJSON(dst []byte, e LogEntry) []byte {
	dst = append(dst, `{"t":`...)
	dst = jsonwire.AppendTime(dst, e.Time)
	dst = append(dst, `,"name":`...)
	dst = jsonwire.AppendString(dst, e.Name)
	dst = append(dst, `,"type":`...)
	dst = append(dst, '"')
	dst = dns.AppendType(dst, e.Type)
	dst = append(dst, '"')
	if e.TestID != "" {
		dst = append(dst, `,"test":`...)
		dst = jsonwire.AppendString(dst, e.TestID)
	}
	if e.MTAID != "" {
		dst = append(dst, `,"mta":`...)
		dst = jsonwire.AppendString(dst, e.MTAID)
	}
	if len(e.Rest) > 0 {
		dst = append(dst, `,"rest":[`...)
		for i, s := range e.Rest {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.AppendString(dst, s)
		}
		dst = append(dst, ']')
	}
	if e.Transport != "" {
		dst = append(dst, `,"via":`...)
		dst = jsonwire.AppendString(dst, e.Transport)
	}
	if e.OverIPv6 {
		dst = append(dst, `,"v6":true`...)
	}
	if e.Remote != "" {
		dst = append(dst, `,"remote":`...)
		dst = jsonwire.AppendString(dst, e.Remote)
	}
	return append(dst, '}', '\n')
}

// logLineParser decodes query-log lines a batch at a time: decode
// appends each line's entry, settle gives the batch's fast-tier entries
// their strings. It is reusable: its buffers are retained across
// batches, so a long scan settles into the two-allocations-per-batch
// regime — one string holding every fast-tier string field of the
// batch, one []string slab holding every Rest value.
type logLineParser struct {
	// arena holds the string fields of the batch's unsettled fast-tier
	// lines back to back, in scan order: name, test, mta, the Rest
	// values, via, remote.
	arena []byte
	// lens holds, per unsettled line, the length of each of those
	// fields, with the line's Rest count before its Rest lengths.
	lens []int
	// lines holds each unsettled line's index in the batch.
	lines []int
	// rests counts the batch's Rest values.
	rests int
}

// parse decodes one log line: a batch of one.
func (p *logLineParser) parse(line []byte) (LogEntry, error) {
	var one [1]LogEntry
	entries, err := p.decode(one[:0], line)
	if err != nil {
		return LogEntry{}, err
	}
	p.settle(entries)
	return entries[0], nil
}

// decode appends line's entry to the batch in entries: the canonical
// fast tier first, then encoding/json for whatever that declines. A
// fast-tier entry's string fields stay empty until settle.
func (p *logLineParser) decode(entries []LogEntry, line []byte) ([]LogEntry, error) {
	arenaMark, lensMark := len(p.arena), len(p.lens)
	if e, ok := p.parseFast(line); ok {
		p.lines = append(p.lines, len(entries))
		return append(entries, e), nil
	}
	// A declined line may have left fields behind: drop them, so the
	// arena holds exactly the fast-tier lines' fields.
	p.arena, p.lens = p.arena[:arenaMark], p.lens[:lensMark]
	var rec logRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return entries, err
	}
	t, ok := dns.ParseType([]byte(rec.Type))
	if !ok {
		return entries, fmt.Errorf("unknown type %q", rec.Type)
	}
	return append(entries, LogEntry{
		Time: rec.Time, Name: rec.Name, Type: t,
		TestID: rec.TestID, MTAID: rec.MTAID, Rest: rec.Rest,
		Transport: rec.Transport, OverIPv6: rec.OverIPv6, Remote: rec.Remote,
	}), nil
}

// settle hands the batch's fast-tier entries their string fields, all
// slices of one copy of the arena (never the caller's reused line
// buffer), and their Rest values, capped slices of one slab so that a
// caller's append cannot overwrite the next entry's. It then empties
// the parser for the next batch.
func (p *logLineParser) settle(entries []LogEntry) {
	if len(p.lines) == 0 {
		return
	}
	arena, lens := string(p.arena), p.lens
	var slab []string
	if p.rests > 0 {
		slab = make([]string, p.rests)
	}
	next := func() string {
		n := lens[0]
		lens = lens[1:]
		if n == 0 {
			return "" // holds no reference to the arena
		}
		s := arena[:n]
		arena = arena[n:]
		return s
	}
	for _, i := range p.lines {
		e := &entries[i]
		e.Name = next()
		e.TestID = next()
		e.MTAID = next()
		n := lens[0]
		lens = lens[1:]
		if n > 0 {
			e.Rest, slab = slab[:n:n], slab[n:]
			for j := range e.Rest {
				e.Rest[j] = next()
			}
		}
		e.Transport = next()
		e.Remote = next()
	}
	p.arena, p.lens, p.lines, p.rests = p.arena[:0], p.lens[:0], p.lines[:0], 0
}

// parseFast decodes the canonical encoding AppendLogJSON emits:
// fields in wire order, no interior whitespace, plain ASCII strings.
// That is every line the server itself wrote. ok=false means "not
// canonical", not "invalid"; on anything it accepts it must agree
// with the json.Unmarshal tier byte for byte. It appends the line's
// string fields and their lengths to the arena as it scans them.
func (p *logLineParser) parseFast(line []byte) (e LogEntry, ok bool) {
	c := jsonwire.NewCursor(line)
	var raw []byte
	str := func() bool {
		s, ok := c.RawStr()
		p.arena = append(p.arena, s...)
		p.lens = append(p.lens, len(s))
		return ok
	}
	// optStr reads an omitempty string field: absent is empty.
	optStr := func(key string) bool {
		if c.Lit(key) {
			return str()
		}
		p.lens = append(p.lens, 0)
		return true
	}

	if !c.Lit(`{"t":"`) {
		return e, false
	}
	if raw, ok = c.RawStr(); !ok {
		return e, false
	}
	if e.Time, ok = jsonwire.TryParseTime(raw); !ok {
		return e, false
	}
	if !c.Lit(`,"name":"`) || !str() {
		return e, false
	}
	if !c.Lit(`,"type":"`) {
		return e, false
	}
	if raw, ok = c.RawStr(); !ok {
		return e, false
	}
	if e.Type, ok = dns.ParseType(raw); !ok {
		return e, false
	}
	if !optStr(`,"test":"`) || !optStr(`,"mta":"`) {
		return e, false
	}
	restAt := len(p.lens)
	p.lens = append(p.lens, 0)
	if c.Lit(`,"rest":[`) {
		// At least one element: the encoder omits an empty rest, and
		// "rest":[] (non-nil empty slice) is the fallback's to decode.
		for {
			if !c.Lit(`"`) || !str() {
				return e, false
			}
			p.lens[restAt]++
			if c.Lit(`,`) {
				continue
			}
			if c.Lit(`]`) {
				break
			}
			return e, false
		}
	}
	if !optStr(`,"via":"`) {
		return e, false
	}
	if c.Lit(`,"v6":true`) {
		e.OverIPv6 = true
	}
	if !optStr(`,"remote":"`) || !c.End() {
		return e, false
	}
	p.rests += p.lens[restAt]
	return e, true
}

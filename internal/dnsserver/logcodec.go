package dnsserver

import (
	"encoding/json"
	"fmt"
	"strconv"
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
// encoder's own canonical output in at most two (one backing string
// shared by all string fields, plus the Rest slice when present).
// Anything else — a hand-edited or foreign log — is decoded by
// json.Unmarshal into this struct.
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
	dst = appendTypeJSON(dst, e.Type)
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

// appendTypeJSON appends the quoted Type mnemonic without going
// through fmt (dns.Type.String allocates via Sprintf for unknown
// types).
func appendTypeJSON(dst []byte, t dns.Type) []byte {
	if s := typeMnemonic(t); s != "" {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	dst = append(dst, `"TYPE`...)
	dst = strconv.AppendUint(dst, uint64(t), 10)
	return append(dst, '"')
}

// typeMnemonic is the map-free inverse of the log's type mnemonics;
// "" means the TYPEn form (RFC 3597) is needed.
func typeMnemonic(t dns.Type) string {
	switch t {
	case dns.TypeA:
		return "A"
	case dns.TypeNS:
		return "NS"
	case dns.TypeCNAME:
		return "CNAME"
	case dns.TypeSOA:
		return "SOA"
	case dns.TypePTR:
		return "PTR"
	case dns.TypeMX:
		return "MX"
	case dns.TypeTXT:
		return "TXT"
	case dns.TypeAAAA:
		return "AAAA"
	case dns.TypeOPT:
		return "OPT"
	case dns.TypeSPF:
		return "SPF"
	case dns.TypeANY:
		return "ANY"
	case dns.TypeNone:
		return "NONE"
	}
	return ""
}

// parseType resolves a decoded type mnemonic. The TYPEn form is
// parsed directly — digits only, value up to 65535 — instead of the
// old fmt.Sscanf("TYPE%d") round trip, which silently accepted
// trailing garbage ("TYPE12abc").
func parseType(b []byte) (dns.Type, bool) {
	switch string(b) { // compiled to a jump table; no allocation
	case "A":
		return dns.TypeA, true
	case "NS":
		return dns.TypeNS, true
	case "CNAME":
		return dns.TypeCNAME, true
	case "SOA":
		return dns.TypeSOA, true
	case "PTR":
		return dns.TypePTR, true
	case "MX":
		return dns.TypeMX, true
	case "TXT":
		return dns.TypeTXT, true
	case "AAAA":
		return dns.TypeAAAA, true
	case "OPT":
		return dns.TypeOPT, true
	case "SPF":
		return dns.TypeSPF, true
	case "ANY":
		return dns.TypeANY, true
	case "NONE":
		return dns.TypeNone, true
	}
	if len(b) < 5 || string(b[:4]) != "TYPE" {
		return 0, false
	}
	v := 0
	for _, c := range b[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
		if v > 0xFFFF {
			return 0, false
		}
	}
	return dns.Type(v), true
}

// logLineParser decodes one query-log line. It is reusable: the
// scratch buffer that gathers the string fields and the rest slice are
// retained across lines, so a long scan settles into the
// two-allocations-per-record regime.
type logLineParser struct {
	scratch []byte
	rest    [][]byte
}

// parse decodes one log line: the canonical fast tier first, then
// encoding/json for whatever that declines.
func (p *logLineParser) parse(line []byte) (LogEntry, error) {
	if e, ok := p.parseFast(line); ok {
		return e, nil
	}
	var rec logRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return LogEntry{}, err
	}
	t, ok := parseType([]byte(rec.Type))
	if !ok {
		return LogEntry{}, fmt.Errorf("unknown type %q", rec.Type)
	}
	return LogEntry{
		Time: rec.Time, Name: rec.Name, Type: t,
		TestID: rec.TestID, MTAID: rec.MTAID, Rest: rec.Rest,
		Transport: rec.Transport, OverIPv6: rec.OverIPv6, Remote: rec.Remote,
	}, nil
}

// parseFast decodes the canonical encoding AppendLogJSON emits:
// fields in wire order, no interior whitespace, plain ASCII strings.
// That is every line the server itself wrote. ok=false means "not
// canonical", not "invalid"; on anything it accepts it must agree
// with the json.Unmarshal tier byte for byte.
func (p *logLineParser) parseFast(line []byte) (e LogEntry, ok bool) {
	c := jsonwire.NewCursor(line)
	var raw, name, test, mta, via, remote []byte
	p.rest = p.rest[:0]

	if !c.Lit(`{"t":"`) {
		return e, false
	}
	if raw, ok = c.RawStr(); !ok {
		return e, false
	}
	if e.Time, ok = jsonwire.TryParseTime(raw); !ok {
		return e, false
	}
	if !c.Lit(`,"name":"`) {
		return e, false
	}
	if name, ok = c.RawStr(); !ok {
		return e, false
	}
	if !c.Lit(`,"type":"`) {
		return e, false
	}
	if raw, ok = c.RawStr(); !ok {
		return e, false
	}
	if e.Type, ok = parseType(raw); !ok {
		return e, false
	}
	if c.Lit(`,"test":"`) {
		if test, ok = c.RawStr(); !ok {
			return e, false
		}
	}
	if c.Lit(`,"mta":"`) {
		if mta, ok = c.RawStr(); !ok {
			return e, false
		}
	}
	if c.Lit(`,"rest":[`) {
		// At least one element: the encoder omits an empty rest, and
		// "rest":[] (non-nil empty slice) is the fallback's to decode.
		for {
			if !c.Lit(`"`) {
				return e, false
			}
			if raw, ok = c.RawStr(); !ok {
				return e, false
			}
			p.rest = append(p.rest, raw)
			if c.Lit(`,`) {
				continue
			}
			if c.Lit(`]`) {
				break
			}
			return e, false
		}
	}
	if c.Lit(`,"via":"`) {
		if via, ok = c.RawStr(); !ok {
			return e, false
		}
	}
	if c.Lit(`,"v6":true`) {
		e.OverIPv6 = true
	}
	if c.Lit(`,"remote":"`) {
		if remote, ok = c.RawStr(); !ok {
			return e, false
		}
	}
	if !c.End() {
		return e, false
	}

	// Every string field shares one compact backing allocation (never
	// the caller's reused line buffer), plus the Rest slice when
	// present. next hands the fields back out in the order gathered.
	p.scratch = p.scratch[:0]
	for _, f := range [...][]byte{name, test, mta, via, remote} {
		p.scratch = append(p.scratch, f...)
	}
	for _, f := range p.rest {
		p.scratch = append(p.scratch, f...)
	}
	backing := string(p.scratch)
	next := func(f []byte) string {
		s := backing[:len(f)]
		backing = backing[len(f):]
		return s
	}
	e.Name = next(name)
	e.TestID = next(test)
	e.MTAID = next(mta)
	e.Transport = next(via)
	e.Remote = next(remote)
	if len(p.rest) > 0 {
		e.Rest = make([]string, len(p.rest))
		for j, f := range p.rest {
			e.Rest[j] = next(f)
		}
	}
	return e, true
}

package campaign

import (
	"encoding/json"
	"strconv"

	"sendervalid/internal/jsonwire"
)

// The journal's JSONL wire format, identical to what encoding/json
// produced for the event struct (the fuzz test pins the equivalence):
//
//	{"t":<RFC3339Nano>,"ev":<string>,"k":{"mta":<string>,"test":<string>},
//	 "n":<int,omitempty>,"err":<string,omitempty>,"delay_ms":<int,omitempty>}
//
// one event per line. Like the query-log codec in internal/dnsserver,
// the lines the campaign itself writes take hand-rolled paths both
// ways: the journal write sits on the campaign's task-transition path
// (every attempt, retry, and completion), and replay on resume walks
// the whole file, so neither should pay reflection per record. Any
// other line is decoded by json.Unmarshal into the event struct.

// appendEventJSON encodes e as one journal line, including the
// trailing newline, byte-identical to json.Marshal of the event
// struct.
func appendEventJSON(dst []byte, e *event) []byte {
	dst = append(dst, `{"t":`...)
	dst = jsonwire.AppendTime(dst, e.Time)
	dst = append(dst, `,"ev":`...)
	dst = jsonwire.AppendString(dst, e.Ev)
	dst = append(dst, `,"k":{"mta":`...)
	dst = jsonwire.AppendString(dst, e.Key.MTA)
	dst = append(dst, `,"test":`...)
	dst = jsonwire.AppendString(dst, e.Key.Test)
	dst = append(dst, '}')
	if e.N != 0 {
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, int64(e.N), 10)
	}
	if e.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = jsonwire.AppendString(dst, e.Err)
	}
	if e.DelayMS != 0 {
		dst = append(dst, `,"delay_ms":`...)
		dst = strconv.AppendInt(dst, e.DelayMS, 10)
	}
	return append(dst, '}', '\n')
}

// internEv returns the canonical constant for a decoded event kind so
// replaying a journal does not allocate one string per line; "" means
// the kind is not one of the five known constants.
func internEv(b []byte) string {
	switch string(b) { // compiled to a jump table; no allocation
	case evEnqueue:
		return evEnqueue
	case evAttempt:
		return evAttempt
	case evRetry:
		return evRetry
	case evDone:
		return evDone
	case evFailed:
		return evFailed
	}
	return ""
}

// eventParser decodes one journal line, reusable across lines like
// dnsserver's logLineParser.
type eventParser struct {
	scratch []byte
}

// parse decodes one journal line: the canonical fast tier first, then
// encoding/json for whatever that declines.
func (p *eventParser) parse(line []byte) (event, error) {
	if e, ok := p.parseFast(line); ok {
		return e, nil
	}
	var e event
	if err := json.Unmarshal(line, &e); err != nil {
		return event{}, err
	}
	return e, nil
}

// parseFast decodes the canonical encoding appendEventJSON emits:
// fields in wire order, no interior whitespace, plain ASCII strings.
// ok=false means "not canonical", not "invalid"; on anything it
// accepts it must agree with json.Unmarshal. Known event kinds are
// interned and the other strings share one backing allocation, so
// replay costs one allocation per line.
func (p *eventParser) parseFast(line []byte) (e event, ok bool) {
	c := jsonwire.NewCursor(line)
	var raw, ev, mta, test, errs []byte
	var n int64

	if !c.Lit(`{"t":"`) {
		return e, false
	}
	if raw, ok = c.RawStr(); !ok {
		return e, false
	}
	if e.Time, ok = jsonwire.TryParseTime(raw); !ok {
		return e, false
	}
	if !c.Lit(`,"ev":"`) {
		return e, false
	}
	if ev, ok = c.RawStr(); !ok {
		return e, false
	}
	if !c.Lit(`,"k":{"mta":"`) {
		return e, false
	}
	if mta, ok = c.RawStr(); !ok {
		return e, false
	}
	if !c.Lit(`,"test":"`) {
		return e, false
	}
	if test, ok = c.RawStr(); !ok {
		return e, false
	}
	if !c.Lit(`}`) {
		return e, false
	}
	if c.Lit(`,"n":`) {
		// json.Unmarshal range-checks against the field's width.
		if n, ok = c.Int(); !ok || int64(int(n)) != n {
			return e, false
		}
		e.N = int(n)
	}
	if c.Lit(`,"err":"`) {
		if errs, ok = c.RawStr(); !ok {
			return e, false
		}
	}
	if c.Lit(`,"delay_ms":`) {
		if e.DelayMS, ok = c.Int(); !ok {
			return e, false
		}
	}
	if !c.End() {
		return e, false
	}

	if e.Ev = internEv(ev); e.Ev == "" {
		e.Ev = string(ev)
	}
	p.scratch = append(append(append(p.scratch[:0], mta...), test...), errs...)
	backing := string(p.scratch)
	e.Key.MTA = backing[:len(mta)]
	e.Key.Test = backing[len(mta) : len(mta)+len(test)]
	e.Err = backing[len(mta)+len(test):]
	return e, true
}

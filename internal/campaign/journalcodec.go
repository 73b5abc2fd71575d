package campaign

import (
	"strconv"

	"sendervalid/internal/jsonwire"
)

// The journal's JSONL wire format, identical to what encoding/json
// produces for the event struct (the fuzz test pins the equivalence):
//
//	{"t":<RFC3339Nano>,"ev":<string>,"k":{"mta":<string>,"test":<string>},
//	 "n":<int,omitempty>,"err":<string,omitempty>,"delay_ms":<int,omitempty>}
//
// one event per line. Only the write side is hand-written: the journal
// write sits on the campaign's attempt-outcome path (every retry and
// completion — the benchmark's probe-campaign workload writes ~50k
// events per run), so it does not pay reflection per record. Replay is json.Unmarshal into the event struct (ReadJournal):
// a journal is read once per -resume and no workload measures it.

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

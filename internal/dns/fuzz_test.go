package dns

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzMessageUnpack throws arbitrary bytes at the wire-format parser —
// the first code every hostile packet reaches. The invariant is
// narrow and absolute: Unpack may reject, but must never panic, and
// anything it accepts must survive a Pack/Unpack round trip and must
// not alias its input — the client and the server both unpack from a
// pooled packet buffer the next exchange overwrites.
//
// The seed corpus covers the interesting shapes: a real query, a real
// answer, compression pointers, truncated headers, and pointer loops.
// Any `go test` run (so make check) replays the seeds; `go
// test -fuzz=FuzzMessageUnpack` explores from them.
func FuzzMessageUnpack(f *testing.F) {
	// A real query and a real TXT answer.
	q := new(Message).SetQuestion("probe.spf-test.example.com", TypeTXT)
	q.ID = 0x1234
	if packed, err := q.AppendPack(nil); err == nil {
		f.Add(packed)
	}
	resp := new(Message).SetReply(q)
	resp.Authoritative = true
	resp.Answers = append(resp.Answers, RR{
		Name: "probe.spf-test.example.com.", Type: TypeTXT, Class: ClassINET, TTL: 60,
		Data: &TXT{Strings: []string{"v=spf1 include:other.example -all"}},
	})
	if packed, err := resp.AppendPack(nil); err == nil {
		f.Add(packed)
	}
	// Degenerate shapes.
	f.Add([]byte{})                                                               // empty
	f.Add([]byte{0x00, 0x01})                                                     // short header
	f.Add([]byte{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 0x0c, 0, 16, 0, 1}) // pointer into the header
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 0x0c, 0, 1, 0, 1})     // self-referencing compression pointer
	f.Add([]byte{0, 2, 1, 0, 0, 255, 0, 255, 0, 255, 0, 255})                     // absurd section counts
	// A reply with several records owned by the question's name (they
	// share its string), others that are not, and names inside rdata;
	// then the same reply with the question in upper case on the wire.
	if packed, err := sampleMessage().AppendPack(nil); err == nil {
		f.Add(packed)
		mixed := append([]byte(nil), packed...)
		copy(mixed[13:], "EXAMPLE") // header, then the first label's length octet
		f.Add(mixed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		buf := append([]byte(nil), data...)
		if err := m.Unpack(buf); err != nil {
			return // rejection is fine; panicking is not
		}
		for i := range buf {
			buf[i] ^= 0xA5 // the buffer goes back to its pool and is reused
		}
		var pristine Message
		if err := pristine.Unpack(data); err != nil || !reflect.DeepEqual(&m, &pristine) {
			t.Fatalf("message changed when its input buffer was overwritten (%v):\n got %v\nwant %v", err, &m, &pristine)
		}
		repacked, err := m.AppendPack(nil)
		if err != nil {
			// Some accepted messages are not re-packable (e.g. names
			// that decompressed past length limits); rejection at this
			// stage is also fine.
			return
		}
		var m2 Message
		if err := m2.Unpack(repacked); err != nil {
			t.Fatalf("repacked message does not unpack: %v", err)
		}
		// AppendPack parity: encoding after existing bytes (as the TCP
		// writer does past its length prefix) must produce exactly the
		// Pack output — compression offsets are message-relative.
		prefixed, err := m.AppendPack([]byte{0xFE, 0xFD})
		if err != nil {
			t.Fatalf("AppendPack fails where Pack succeeded: %v", err)
		}
		if !bytes.Equal(prefixed[2:], repacked) {
			t.Fatalf("AppendPack at offset diverges from Pack:\n got %x\nwant %x",
				prefixed[2:], repacked)
		}
	})
}

// FuzzNameUnpack targets the name decompressor on its own: names are
// where DNS parsers historically break (pointer loops, pointer chains
// that expand quadratically, labels running past the buffer).
func FuzzNameUnpack(f *testing.F) {
	f.Add([]byte{3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0})
	f.Add([]byte{0xc0, 0x00})         // pointer to itself
	f.Add([]byte{1, 'a', 0xc0, 0x00}) // loop through a label
	f.Add([]byte{63, 0})              // label length past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		_ = m.Unpack(data)
	})
}

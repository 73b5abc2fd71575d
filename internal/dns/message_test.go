package dns

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		ID:                 0x1234,
		Response:           true,
		Authoritative:      true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		RCode:              RCodeSuccess,
		Questions: []Question{
			{Name: "example.com.", Type: TypeTXT, Class: ClassINET},
		},
		Answers: []RR{
			{Name: "example.com.", Type: TypeTXT, Class: ClassINET, TTL: 300,
				Data: &TXT{Strings: []string{"v=spf1 ip4:192.0.2.1 -all"}}},
			{Name: "example.com.", Type: TypeMX, Class: ClassINET, TTL: 300,
				Data: &MX{Preference: 10, Host: "mail.example.com."}},
			{Name: "mail.example.com.", Type: TypeA, Class: ClassINET, TTL: 300,
				Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
			{Name: "mail.example.com.", Type: TypeAAAA, Class: ClassINET, TTL: 300,
				Data: &AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
			{Name: "alias.example.com.", Type: TypeCNAME, Class: ClassINET, TTL: 300,
				Data: &CNAME{Target: "mail.example.com."}},
		},
		Authority: []RR{
			{Name: "example.com.", Type: TypeSOA, Class: ClassINET, TTL: 3600,
				Data: &SOA{MName: "ns1.example.com.", RName: "hostmaster.example.com.",
					Serial: 2021120701, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}},
			{Name: "example.com.", Type: TypeNS, Class: ClassINET, TTL: 3600,
				Data: &NS{Host: "ns1.example.com."}},
		},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	orig := sampleMessage()
	packed, err := orig.AppendPack(nil)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	var got Message
	if err := got.Unpack(packed); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(&got, orig) {
		t.Errorf("round trip mismatch:\n got: %+v\nwant: %+v", &got, orig)
	}
}

func TestMessageCompressionSavesSpace(t *testing.T) {
	msg := sampleMessage()
	packed, err := msg.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rough check: the repeated "example.com." suffix should appear in
	// full only once.
	if n := strings.Count(string(packed), "\x07example\x03com"); n != 1 {
		t.Errorf("uncompressed suffix appears %d times, want 1", n)
	}
}

func TestMessageHeaderFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Message)
		get  func(*Message) bool
	}{
		{"QR", func(m *Message) { m.Response = true }, func(m *Message) bool { return m.Response }},
		{"AA", func(m *Message) { m.Authoritative = true }, func(m *Message) bool { return m.Authoritative }},
		{"TC", func(m *Message) { m.Truncated = true }, func(m *Message) bool { return m.Truncated }},
		{"RD", func(m *Message) { m.RecursionDesired = true }, func(m *Message) bool { return m.RecursionDesired }},
		{"RA", func(m *Message) { m.RecursionAvailable = true }, func(m *Message) bool { return m.RecursionAvailable }},
	} {
		m := &Message{ID: 1}
		tc.mut(m)
		packed, err := m.AppendPack(nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got Message
		if err := got.Unpack(packed); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.get(&got) {
			t.Errorf("flag %s lost in round trip", tc.name)
		}
	}
}

func TestMessageRCodeRoundTrip(t *testing.T) {
	for _, rc := range []RCode{RCodeSuccess, RCodeFormatError, RCodeServerFailure,
		RCodeNameError, RCodeNotImplemented, RCodeRefused} {
		m := &Message{ID: 7, Response: true, RCode: rc}
		packed, err := m.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := got.Unpack(packed); err != nil {
			t.Fatal(err)
		}
		if got.RCode != rc {
			t.Errorf("RCode %s round-tripped to %s", rc, got.RCode)
		}
	}
}

func TestSetQuestionSetReply(t *testing.T) {
	q := new(Message).SetQuestion("Example.COM", TypeTXT)
	if q.Question().Name != "example.com." {
		t.Errorf("question name %q", q.Question().Name)
	}
	if !q.RecursionDesired {
		t.Error("SetQuestion should request recursion")
	}
	q.ID = 99
	r := new(Message).SetReply(q)
	if r.ID != 99 || !r.Response || len(r.Questions) != 1 {
		t.Errorf("SetReply produced %+v", r)
	}
	if (&Message{}).Question() != (Question{}) {
		t.Error("empty message Question() should be zero")
	}
}

func TestEDNS(t *testing.T) {
	m := new(Message).SetQuestion("example.com", TypeA)
	if got := m.EDNSUDPSize(); got != 512 {
		t.Errorf("default UDP size %d, want 512", got)
	}
	m.SetEDNS(1232)
	if got := m.EDNSUDPSize(); got != 1232 {
		t.Errorf("EDNS UDP size %d, want 1232", got)
	}
	// Replacing must not accumulate OPT records.
	m.SetEDNS(4096)
	if len(m.Additional) != 1 {
		t.Errorf("SetEDNS accumulated %d additional records", len(m.Additional))
	}
	packed, err := m.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(packed); err != nil {
		t.Fatal(err)
	}
	if got.EDNSUDPSize() != 4096 {
		t.Errorf("EDNS size after round trip: %d", got.EDNSUDPSize())
	}
}

func TestEDNSMinimum(t *testing.T) {
	m := new(Message).SetQuestion("example.com", TypeA)
	m.SetEDNS(100) // below the 512 floor
	if got := m.EDNSUDPSize(); got != 512 {
		t.Errorf("sub-512 advertisement yielded %d, want 512 floor", got)
	}
}

func TestTXTJoinedAndSplit(t *testing.T) {
	long := strings.Repeat("x", 600)
	parts := SplitTXT(long)
	if len(parts) != 3 || len(parts[0]) != 255 || len(parts[2]) != 90 {
		t.Fatalf("SplitTXT lengths: %v", func() []int {
			var ls []int
			for _, p := range parts {
				ls = append(ls, len(p))
			}
			return ls
		}())
	}
	txt := &TXT{Strings: parts}
	if txt.Joined() != long {
		t.Error("Joined did not reassemble the payload")
	}
	if got := SplitTXT(""); len(got) != 1 || got[0] != "" {
		t.Errorf("SplitTXT(\"\") = %v", got)
	}
}

func TestUnpackMalformed(t *testing.T) {
	good, err := sampleMessage().AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid message must fail cleanly, not panic.
	for i := 0; i < len(good); i++ {
		var m Message
		if err := m.Unpack(good[:i]); err == nil && i < 12 {
			t.Errorf("header truncation at %d accepted", i)
		}
	}
	var m Message
	if err := m.Unpack(nil); err == nil {
		t.Error("empty message accepted")
	}
}

func TestUnpackRawRData(t *testing.T) {
	// An unknown type must round-trip as opaque bytes.
	orig := &Message{
		ID:       5,
		Response: true,
		Answers: []RR{{
			Name: "example.com.", Type: Type(251), Class: ClassINET, TTL: 60,
			Data: &RawRData{Data: []byte{1, 2, 3, 4}},
		}},
	}
	packed, err := orig.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(packed); err != nil {
		t.Fatal(err)
	}
	raw, ok := got.Answers[0].Data.(*RawRData)
	if !ok || !reflect.DeepEqual(raw.Data, []byte{1, 2, 3, 4}) {
		t.Errorf("raw rdata mismatch: %+v", got.Answers[0].Data)
	}
}

func TestBadRDataRejected(t *testing.T) {
	m := &Message{ID: 1, Answers: []RR{{
		Name: "x.example.", Type: TypeA, Class: ClassINET,
		Data: &A{Addr: netip.MustParseAddr("2001:db8::1")},
	}}}
	if _, err := m.AppendPack(nil); err == nil {
		t.Error("A record with IPv6 address packed successfully")
	}
	m.Answers[0] = RR{Name: "x.example.", Type: TypeAAAA, Class: ClassINET,
		Data: &AAAA{Addr: netip.MustParseAddr("192.0.2.1")}}
	if _, err := m.AppendPack(nil); err == nil {
		t.Error("AAAA record with IPv4 address packed successfully")
	}
}

func TestMessageStringRendering(t *testing.T) {
	s := sampleMessage().String()
	for _, want := range []string{"NOERROR", "example.com.", "ANSWER", "AUTHORITY", "+aa"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	for _, rr := range sampleMessage().Answers {
		if rr.String() == "" {
			t.Error("empty RR string")
		}
	}
}

func TestUnpackFuzzResilience(t *testing.T) {
	// Property: Unpack never panics on arbitrary input.
	f := func(data []byte) bool {
		var m Message
		_ = m.Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuestionRoundTripProperty(t *testing.T) {
	f := func(id uint16, t8 uint8) bool {
		m := &Message{ID: id}
		m.SetQuestion("probe.example.com", Type(t8))
		m.ID = id
		packed, err := m.AppendPack(nil)
		if err != nil {
			return false
		}
		var got Message
		if err := got.Unpack(packed); err != nil {
			return false
		}
		return got.ID == id && got.Question().Type == Type(t8) &&
			got.Question().Name == "probe.example.com."
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeClassStrings(t *testing.T) {
	if TypeTXT.String() != "TXT" || Type(999).String() != "TYPE999" {
		t.Error("Type.String mismatch")
	}
	if ClassINET.String() != "IN" || Class(7).String() != "CLASS7" {
		t.Error("Class.String mismatch")
	}
	if RCodeNameError.String() != "NXDOMAIN" || RCode(12).String() != "RCODE12" {
		t.Error("RCode.String mismatch")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(5).String() != "OPCODE5" {
		t.Error("Opcode.String mismatch")
	}
}

package dns

import (
	"fmt"
	"strings"
	"sync"
)

// Question is a DNS question section entry.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like presentation format.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

// Message is a DNS message (RFC 1035 §4).
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// header flag bit masks.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7

	opcodeShift = 11
	opcodeMask  = 0xF
	rcodeMask   = 0xF
)

// AppendPack encodes the message into wire format with name
// compression, appending to dst and returning the extended buffer.
// The message starts at len(dst), so a caller can reserve prefix bytes
// (e.g. the TCP length header) or reuse a pooled buffer with dst[:0];
// packing into a buffer with sufficient capacity performs zero
// allocations.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	// Builders are pooled rather than stack-allocated: *builder crosses
	// the RData.pack interface boundary, so escape analysis would heap-
	// allocate one per call otherwise.
	b := builderPool.Get().(*builder)
	defer func() {
		b.buf = nil
		b.nNames = 0
		builderPool.Put(b)
	}()
	b.buf, b.base = dst, len(dst)
	b.uint16(m.ID)
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	flags |= uint16(m.Opcode&opcodeMask) << opcodeShift
	if m.Authoritative {
		flags |= flagAA
	}
	if m.Truncated {
		flags |= flagTC
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(m.RCode) & rcodeMask
	b.uint16(flags)
	b.uint16(uint16(len(m.Questions)))
	b.uint16(uint16(len(m.Answers)))
	b.uint16(uint16(len(m.Authority)))
	b.uint16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := b.packName(q.Name); err != nil {
			return nil, err
		}
		b.uint16(uint16(q.Type))
		b.uint16(uint16(q.Class))
	}
	if err := b.packSection(m.Answers); err != nil {
		return nil, err
	}
	if err := b.packSection(m.Authority); err != nil {
		return nil, err
	}
	if err := b.packSection(m.Additional); err != nil {
		return nil, err
	}
	return b.buf, nil
}

func (b *builder) packSection(rrs []RR) error {
	for _, rr := range rrs {
		if err := b.packRR(rr); err != nil {
			return err
		}
	}
	return nil
}

// msgPool recycles Message values across queries on the serving path.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMsg returns a pooled Message ready for Unpack, SetQuestion, or
// SetReply. Pooled messages retain their Questions backing array, so a
// steady-state server reuses it instead of allocating per query.
func GetMsg() *Message {
	return msgPool.Get().(*Message)
}

// PutMsg resets m and returns it to the pool. The caller must not
// retain m, or any slice taken from it, after PutMsg — in particular a
// handler must not hold a pooled request or response Message past
// ServeDNS. Strings extracted from the message (names, TXT payloads)
// are independent copies and remain valid.
func PutMsg(m *Message) {
	m.Reset()
	msgPool.Put(m)
}

// Reset clears the message for reuse. The Questions backing array is
// retained (it is only ever written through this package's appends);
// the record sections are dropped outright because callers assign
// caller-owned slices to them (e.g. a responder's Records).
func (m *Message) Reset() {
	qs := m.Questions[:0]
	*m = Message{Questions: qs}
}

// Unpack decodes a wire-format message into m, replacing its contents.
// Section backing arrays are reused when their capacity allows, so
// repeatedly unpacking into a pooled Message does not allocate slice
// headers; names and rdata are always independent copies of the input,
// which may therefore be a pooled buffer.
func (m *Message) Unpack(data []byte) error {
	p := &parser{msg: data}
	id, err := p.uint16()
	if err != nil {
		return err
	}
	flags, err := p.uint16()
	if err != nil {
		return err
	}
	oldQuestions := m.Questions
	*m = Message{
		ID:                 id,
		Response:           flags&flagQR != 0,
		Opcode:             Opcode(flags >> opcodeShift & opcodeMask),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		RCode:              RCode(flags & rcodeMask),
		Questions:          oldQuestions[:0],
		Answers:            m.Answers[:0],
		Authority:          m.Authority[:0],
		Additional:         m.Additional[:0],
	}
	qdCount, err := p.uint16()
	if err != nil {
		return err
	}
	anCount, err := p.uint16()
	if err != nil {
		return err
	}
	nsCount, err := p.uint16()
	if err != nil {
		return err
	}
	arCount, err := p.uint16()
	if err != nil {
		return err
	}
	for i := range int(qdCount) {
		// The name most likely to arrive next is the one this slot held
		// last time (a pooled Message on a busy server, or a retry);
		// matching against it avoids rebuilding an identical string.
		var hint string
		if i < len(oldQuestions) {
			hint = oldQuestions[i].Name
		}
		name, err := p.nameHint(hint)
		if err != nil {
			return err
		}
		t, err := p.uint16()
		if err != nil {
			return err
		}
		c, err := p.uint16()
		if err != nil {
			return err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(t), Class: Class(c)})
		if i == 0 {
			p.qname = name
		}
	}
	for _, section := range []struct {
		count int
		dst   *[]RR
	}{
		{int(anCount), &m.Answers},
		{int(nsCount), &m.Authority},
		{int(arCount), &m.Additional},
	} {
		for range section.count {
			rr, err := p.unpackRR()
			if err != nil {
				return err
			}
			*section.dst = append(*section.dst, rr)
		}
	}
	return nil
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// SetQuestion resets the message to a query for (name, t) with a fresh
// recursion-desired header, preserving the ID.
func (m *Message) SetQuestion(name string, t Type) *Message {
	id := m.ID
	*m = Message{
		ID:               id,
		RecursionDesired: true,
		Questions: []Question{{
			Name:  CanonicalName(name),
			Type:  t,
			Class: ClassINET,
		}},
	}
	return m
}

// SetReply resets the message to a response to req, copying the ID,
// question, opcode, and recursion-desired flag. The receiver's
// existing Questions backing array is reused when its capacity allows,
// so replying via a pooled Message does not allocate the copy.
func (m *Message) SetReply(req *Message) *Message {
	qs := append(m.Questions[:0], req.Questions...)
	*m = Message{
		ID:               req.ID,
		Response:         true,
		Opcode:           req.Opcode,
		RecursionDesired: req.RecursionDesired,
		Questions:        qs,
	}
	return m
}

// EDNSUDPSize returns the EDNS0-advertised UDP payload size from the
// additional section, or 512 if the message carries no OPT record.
func (m *Message) EDNSUDPSize() int {
	for _, rr := range m.Additional {
		if opt, ok := rr.Data.(*OPT); ok {
			if opt.UDPSize < 512 {
				return 512
			}
			return int(opt.UDPSize)
		}
	}
	return 512
}

// SetEDNS attaches an OPT record advertising the given UDP payload
// size, replacing any existing OPT record.
func (m *Message) SetEDNS(udpSize uint16) {
	filtered := m.Additional[:0]
	for _, rr := range m.Additional {
		if _, ok := rr.Data.(*OPT); !ok {
			filtered = append(filtered, rr)
		}
	}
	m.Additional = append(filtered, RR{
		Name: ".",
		Type: TypeOPT,
		Data: &OPT{UDPSize: udpSize},
	})
}

// String renders the message in a dig-like presentation format.
func (m *Message) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, ";; %s %s id=%d rcode=%s", m.Opcode, kind, m.ID, m.RCode)
	for _, f := range []struct {
		set  bool
		name string
	}{
		{m.Authoritative, "aa"},
		{m.Truncated, "tc"},
		{m.RecursionDesired, "rd"},
		{m.RecursionAvailable, "ra"},
	} {
		if f.set {
			sb.WriteString(" +" + f.name)
		}
	}
	sb.WriteByte('\n')
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, section := range []struct {
		label string
		rrs   []RR
	}{
		{"ANSWER", m.Answers},
		{"AUTHORITY", m.Authority},
		{"ADDITIONAL", m.Additional},
	} {
		if len(section.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";; %s\n", section.label)
		for _, rr := range section.rrs {
			sb.WriteString(rr.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

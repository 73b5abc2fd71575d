package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ErrBadRData is returned when record data does not match its type.
var ErrBadRData = errors.New("dns: malformed rdata")

// RR is a DNS resource record.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file presentation format.
func (rr RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s",
		CanonicalName(rr.Name), rr.TTL, rr.Class, rr.Type, rr.Data.String())
}

// RData is the type-specific data of a resource record.
type RData interface {
	// pack appends the wire form of the rdata (without the RDLENGTH
	// prefix) to the builder.
	pack(b *builder) error
	// String renders the rdata in presentation format.
	String() string
}

// A is an IPv4 address record (RFC 1035 §3.4.1).
type A struct {
	Addr netip.Addr
}

func (d *A) pack(b *builder) error {
	if !d.Addr.Is4() {
		return fmt.Errorf("%w: A record with non-IPv4 address %s", ErrBadRData, d.Addr)
	}
	a4 := d.Addr.As4()
	b.bytes(a4[:])
	return nil
}

func (d *A) String() string { return d.Addr.String() }

// AAAA is an IPv6 address record (RFC 3596).
type AAAA struct {
	Addr netip.Addr
}

func (d *AAAA) pack(b *builder) error {
	if !d.Addr.Is6() || d.Addr.Is4In6() {
		return fmt.Errorf("%w: AAAA record with non-IPv6 address %s", ErrBadRData, d.Addr)
	}
	a16 := d.Addr.As16()
	b.bytes(a16[:])
	return nil
}

func (d *AAAA) String() string { return d.Addr.String() }

// MX is a mail exchanger record (RFC 1035 §3.3.9).
type MX struct {
	Preference uint16
	Host       string
}

func (d *MX) pack(b *builder) error {
	b.uint16(d.Preference)
	return b.packName(d.Host)
}

func (d *MX) String() string {
	return strconv.Itoa(int(d.Preference)) + " " + CanonicalName(d.Host)
}

// TXT is a text record (RFC 1035 §3.3.14). A TXT record carries one or
// more <character-string>s; SPF, DKIM, and DMARC consumers concatenate
// them.
type TXT struct {
	Strings []string
}

func (d *TXT) pack(b *builder) error {
	if len(d.Strings) == 0 {
		return b.charString("")
	}
	for _, s := range d.Strings {
		if err := b.charString(s); err != nil {
			return err
		}
	}
	return nil
}

func (d *TXT) String() string {
	parts := make([]string, len(d.Strings))
	for i, s := range d.Strings {
		parts[i] = strconv.Quote(s)
	}
	return strings.Join(parts, " ")
}

// Joined returns the record's character-strings concatenated without
// separators, as required when interpreting TXT records as SPF
// (RFC 7208 §3.3), DKIM key, or DMARC policy payloads.
func (d *TXT) Joined() string { return strings.Join(d.Strings, "") }

// SplitTXT splits a long payload into 255-octet character-strings
// suitable for a TXT record.
func SplitTXT(payload string) []string {
	if payload == "" {
		return []string{""}
	}
	var out []string
	for len(payload) > 255 {
		out = append(out, payload[:255])
		payload = payload[255:]
	}
	return append(out, payload)
}

// NS is a name-server record.
type NS struct {
	Host string
}

func (d *NS) pack(b *builder) error { return b.packName(d.Host) }
func (d *NS) String() string        { return CanonicalName(d.Host) }

// CNAME is an alias record.
type CNAME struct {
	Target string
}

func (d *CNAME) pack(b *builder) error { return b.packName(d.Target) }
func (d *CNAME) String() string        { return CanonicalName(d.Target) }

// PTR is a pointer record, used for reverse lookups (and by the SPF
// "ptr" mechanism).
type PTR struct {
	Target string
}

func (d *PTR) pack(b *builder) error { return b.packName(d.Target) }
func (d *PTR) String() string        { return CanonicalName(d.Target) }

// SOA is a start-of-authority record (RFC 1035 §3.3.13). The RName
// field carries the zone contact address, which the measurement study
// uses for experiment attribution (§5.3 of the paper).
type SOA struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (d *SOA) pack(b *builder) error {
	if err := b.packName(d.MName); err != nil {
		return err
	}
	if err := b.packName(d.RName); err != nil {
		return err
	}
	b.uint32(d.Serial)
	b.uint32(d.Refresh)
	b.uint32(d.Retry)
	b.uint32(d.Expire)
	b.uint32(d.Minimum)
	return nil
}

func (d *SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		CanonicalName(d.MName), CanonicalName(d.RName),
		d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

// OPT is an EDNS0 pseudo-record (RFC 6891). Only the advertised UDP
// payload size is modeled; it lives in the RR's Class field on the
// wire, which Message handles during pack/unpack.
type OPT struct {
	// UDPSize is the requestor's advertised maximum UDP payload size.
	UDPSize uint16
}

func (d *OPT) pack(b *builder) error { return nil }
func (d *OPT) String() string        { return fmt.Sprintf("OPT udpsize=%d", d.UDPSize) }

// RawRData carries the rdata of record types this package does not
// interpret (RFC 3597 opaque handling); the type is the RR's.
type RawRData struct {
	Data []byte
}

func (d *RawRData) pack(b *builder) error {
	b.bytes(d.Data)
	return nil
}

func (d *RawRData) String() string {
	return fmt.Sprintf("\\# %d %x", len(d.Data), d.Data)
}

// packRR appends the full wire form of rr, including the RDLENGTH and
// rdata.
func (b *builder) packRR(rr RR) error {
	if err := b.packName(rr.Name); err != nil {
		return err
	}
	b.uint16(uint16(rr.Type))
	if opt, ok := rr.Data.(*OPT); ok {
		// EDNS0 smuggles the UDP size in the class field.
		b.uint16(opt.UDPSize)
	} else {
		b.uint16(uint16(rr.Class))
	}
	b.uint32(rr.TTL)
	lenOff := len(b.buf)
	b.uint16(0) // RDLENGTH placeholder
	if err := rr.Data.pack(b); err != nil {
		return err
	}
	rdLen := len(b.buf) - lenOff - 2
	if rdLen > 0xFFFF {
		return ErrRDataTooLong
	}
	b.buf[lenOff] = byte(rdLen >> 8)
	b.buf[lenOff+1] = byte(rdLen)
	return nil
}

// unpackRR reads one resource record.
func (p *parser) unpackRR() (RR, error) {
	var rr RR
	name, err := p.nameHint(p.qname)
	if err != nil {
		return rr, err
	}
	rr.Name = name
	t, err := p.uint16()
	if err != nil {
		return rr, err
	}
	rr.Type = Type(t)
	c, err := p.uint16()
	if err != nil {
		return rr, err
	}
	rr.Class = Class(c)
	ttl, err := p.uint32()
	if err != nil {
		return rr, err
	}
	rr.TTL = ttl
	rdLen, err := p.uint16()
	if err != nil {
		return rr, err
	}
	rdEnd := p.off + int(rdLen)
	if rdEnd > len(p.msg) {
		return rr, ErrMessageTruncated
	}
	rr.Data, err = p.unpackRData(rr.Type, int(rdLen))
	if err != nil {
		return rr, err
	}
	if p.off != rdEnd {
		// Name decompression may read past rdata boundaries only via
		// pointers; a direct mismatch means a malformed record.
		if p.off > rdEnd {
			return rr, ErrBadRData
		}
		p.off = rdEnd
	}
	if rr.Type == TypeOPT {
		rr.Data = &OPT{UDPSize: uint16(rr.Class)}
		rr.Class = ClassINET
	}
	return rr, nil
}

func (p *parser) unpackRData(t Type, rdLen int) (RData, error) {
	switch t {
	case TypeA:
		b, err := p.bytes(4)
		if err != nil {
			return nil, err
		}
		return &A{Addr: netip.AddrFrom4([4]byte(b))}, nil
	case TypeAAAA:
		b, err := p.bytes(16)
		if err != nil {
			return nil, err
		}
		return &AAAA{Addr: netip.AddrFrom16([16]byte(b))}, nil
	case TypeMX:
		pref, err := p.uint16()
		if err != nil {
			return nil, err
		}
		host, err := p.name()
		if err != nil {
			return nil, err
		}
		return &MX{Preference: pref, Host: host}, nil
	case TypeTXT, TypeSPF:
		end := p.off + rdLen
		var strs []string
		for p.off < end {
			s, err := p.charString()
			if err != nil {
				return nil, err
			}
			strs = append(strs, s)
		}
		return &TXT{Strings: strs}, nil
	case TypeNS:
		host, err := p.name()
		if err != nil {
			return nil, err
		}
		return &NS{Host: host}, nil
	case TypeCNAME:
		target, err := p.name()
		if err != nil {
			return nil, err
		}
		return &CNAME{Target: target}, nil
	case TypePTR:
		target, err := p.name()
		if err != nil {
			return nil, err
		}
		return &PTR{Target: target}, nil
	case TypeSOA:
		var soa SOA
		var err error
		if soa.MName, err = p.name(); err != nil {
			return nil, err
		}
		if soa.RName, err = p.name(); err != nil {
			return nil, err
		}
		if soa.Serial, err = p.uint32(); err != nil {
			return nil, err
		}
		if soa.Refresh, err = p.uint32(); err != nil {
			return nil, err
		}
		if soa.Retry, err = p.uint32(); err != nil {
			return nil, err
		}
		if soa.Expire, err = p.uint32(); err != nil {
			return nil, err
		}
		if soa.Minimum, err = p.uint32(); err != nil {
			return nil, err
		}
		return &soa, nil
	default:
		b, err := p.bytes(rdLen)
		if err != nil {
			return nil, err
		}
		return &RawRData{Data: append([]byte(nil), b...)}, nil
	}
}

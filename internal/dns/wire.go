package dns

import (
	"errors"
	"sync"
)

// Errors returned by message packing and unpacking.
var (
	ErrMessageTruncated = errors.New("dns: message truncated")
	ErrRDataTooLong     = errors.New("dns: rdata exceeds 65535 octets")
	ErrStringTooLong    = errors.New("dns: character-string exceeds 255 octets")
)

// compressTableSize bounds how many emitted label sequences a builder
// remembers as compression targets. Typical responses (a question plus
// a handful of records sharing the zone suffix) need far fewer; when
// the table fills, later names are simply emitted uncompressed.
const compressTableSize = 24

// builder accumulates the wire form of a message and tracks name
// compression targets. It holds no heap state of its own: compression
// offsets live in a fixed-size table and candidate suffixes are
// compared against the already-emitted wire bytes, so message packing
// allocates only when the destination buffer must grow.
type builder struct {
	buf []byte
	// base is the offset of the message start within buf, so AppendPack
	// can encode into the tail of an existing buffer (e.g. after a TCP
	// length prefix) with compression pointers staying message-relative.
	base     int
	nameOffs [compressTableSize]uint16
	nNames   uint8
}

func newBuilder() *builder {
	return &builder{buf: make([]byte, 0, 512)}
}

// builderPool recycles builders for the pack path; see AppendPack.
var builderPool = sync.Pool{New: func() any { return new(builder) }}

func (b *builder) uint8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) uint16(v uint16) { b.buf = append(b.buf, byte(v>>8), byte(v)) }
func (b *builder) uint32(v uint32) {
	b.buf = append(b.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (b *builder) bytes(v []byte) { b.buf = append(b.buf, v...) }

// charString appends an RFC 1035 <character-string>: a length octet
// followed by up to 255 octets.
func (b *builder) charString(s string) error {
	if len(s) > 255 {
		return ErrStringTooLong
	}
	b.uint8(uint8(len(s)))
	b.buf = append(b.buf, s...)
	return nil
}

// parser reads the wire form of a message. The full message is kept
// for compression-pointer resolution.
type parser struct {
	msg []byte
	off int
	// qname is the first question's name once parsed. Nearly every
	// record of a reply is owned by the name that was asked, so unpackRR
	// offers it as the hint and those records share one string.
	qname string
}

func (p *parser) uint8() (uint8, error) {
	if p.off+1 > len(p.msg) {
		return 0, ErrMessageTruncated
	}
	v := p.msg[p.off]
	p.off++
	return v, nil
}

func (p *parser) uint16() (uint16, error) {
	if p.off+2 > len(p.msg) {
		return 0, ErrMessageTruncated
	}
	v := uint16(p.msg[p.off])<<8 | uint16(p.msg[p.off+1])
	p.off += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.off+4 > len(p.msg) {
		return 0, ErrMessageTruncated
	}
	v := uint32(p.msg[p.off])<<24 | uint32(p.msg[p.off+1])<<16 |
		uint32(p.msg[p.off+2])<<8 | uint32(p.msg[p.off+3])
	p.off += 4
	return v, nil
}

func (p *parser) bytes(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.msg) {
		return nil, ErrMessageTruncated
	}
	v := p.msg[p.off : p.off+n]
	p.off += n
	return v, nil
}

func (p *parser) name() (string, error) {
	name, next, err := unpackName(p.msg, p.off)
	if err != nil {
		return "", err
	}
	p.off = next
	return name, nil
}

// nameHint reads a name like name, but when the wire form equals hint
// (a canonical name, typically the one a pooled Message parsed into
// this slot last time) it returns hint without building a new string.
func (p *parser) nameHint(hint string) (string, error) {
	if hint != "" {
		if end, ok := matchWireName(p.msg, p.off, hint); ok {
			p.off = end
			return hint, nil
		}
	}
	return p.name()
}

func (p *parser) charString() (string, error) {
	n, err := p.uint8()
	if err != nil {
		return "", err
	}
	b, err := p.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

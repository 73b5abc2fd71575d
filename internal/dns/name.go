package dns

import (
	"errors"
	"strings"
)

// Errors returned by name handling.
var (
	ErrNameTooLong   = errors.New("dns: name exceeds 255 octets")
	ErrLabelTooLong  = errors.New("dns: label exceeds 63 octets")
	ErrEmptyLabel    = errors.New("dns: empty label in name")
	ErrBadPointer    = errors.New("dns: bad compression pointer")
	ErrNameTruncated = errors.New("dns: truncated name")
)

const (
	maxNameLen  = 255
	maxLabelLen = 63
)

// CanonicalName lowercases the ASCII letters of a domain name and
// ensures it is fully qualified (ends with a dot). The root name is
// returned as ".". Every other octet is kept as it is: DNS compares
// names case-insensitively in ASCII only (RFC 4343 §3), so a label
// octet outside A–Z, valid UTF-8 or not, is never rewritten.
//
// Names that are already canonical — the overwhelmingly common case on
// the serving path, where every name comes out of unpackName in
// canonical form — are returned unchanged without allocating.
func CanonicalName(name string) string {
	if name == "" {
		return "."
	}
	if name[len(name)-1] != '.' {
		return canonicalSlow(name)
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 'A' && c <= 'Z' {
			return canonicalSlow(name)
		}
	}
	return name
}

// canonicalSlow is CanonicalName for a non-empty name that needs a
// copy: one allocation, sized for the trailing dot.
func canonicalSlow(name string) string {
	var sb strings.Builder
	sb.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		sb.WriteByte(foldASCII(name[i]))
	}
	if name[len(name)-1] != '.' {
		sb.WriteByte('.')
	}
	return sb.String()
}

// foldASCII lowercases an ASCII letter and returns any other octet
// unchanged.
func foldASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// EqualNames reports whether two domain names are equal under DNS
// case-insensitive comparison, ignoring one trailing dot: exactly when
// their CanonicalName forms are equal. It compares in place and never
// allocates.
func EqualNames(a, b string) bool {
	a, b = strings.TrimSuffix(a, "."), strings.TrimSuffix(b, ".")
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if foldASCII(a[i]) != foldASCII(b[i]) {
			return false
		}
	}
	return true
}

// ValidateName checks that name is a syntactically legal domain name:
// no empty interior labels, labels of at most 63 octets, and a total
// wire length of at most 255 octets.
func ValidateName(name string) error {
	return validateCanonical(CanonicalName(name))
}

// validateCanonical is ValidateName for a name already in canonical
// form. It performs a single allocation-free scan.
func validateCanonical(name string) error {
	if name == "." {
		return nil
	}
	wire := 1 // terminal root label
	for pos := 0; pos < len(name); {
		dot := strings.IndexByte(name[pos:], '.') // >= 0: canonical names end in '.'
		if dot == 0 {
			return ErrEmptyLabel
		}
		if dot > maxLabelLen {
			return ErrLabelTooLong
		}
		wire += 1 + dot
		pos += dot + 1
	}
	if wire > maxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// packName appends the wire encoding of name to b, emitting a
// compression pointer when a suffix of the name was already packed.
// Instead of a per-message map keyed by freshly joined suffix strings,
// the builder records the offsets of emitted label sequences and
// compares candidate suffixes against the wire bytes directly, so
// packing a typical message performs zero allocations.
func (b *builder) packName(name string) error {
	name = CanonicalName(name)
	if err := validateCanonical(name); err != nil {
		return err
	}
	if name == "." {
		b.buf = append(b.buf, 0)
		return nil
	}
	for pos := 0; pos < len(name); {
		if off, ok := b.findSuffix(name[pos:]); ok {
			b.uint16(uint16(off) | 0xC000)
			return nil
		}
		dot := strings.IndexByte(name[pos:], '.')
		if rel := len(b.buf) - b.base; rel < 0x4000 && int(b.nNames) < len(b.nameOffs) {
			b.nameOffs[b.nNames] = uint16(rel)
			b.nNames++
		}
		b.buf = append(b.buf, byte(dot))
		b.buf = append(b.buf, name[pos:pos+dot]...)
		pos += dot + 1
	}
	b.buf = append(b.buf, 0)
	return nil
}

// findSuffix scans the recorded label-sequence offsets for one whose
// wire form equals the canonical suffix.
func (b *builder) findSuffix(suffix string) (int, bool) {
	for i := 0; i < int(b.nNames); i++ {
		off := int(b.nameOffs[i])
		if b.wireNameEquals(off, suffix) {
			return off, true
		}
	}
	return 0, false
}

// wireNameEquals reports whether the wire-form name at message-relative
// offset off equals suffix (a canonical name). Everything the builder
// emits is lowercase, so a byte comparison suffices.
func (b *builder) wireNameEquals(off int, suffix string) bool {
	msg := b.buf[b.base:]
	pos := 0
	budget := 64 // recorded offsets cannot loop, but stay defensive
	for {
		if off >= len(msg) {
			return false
		}
		c := int(msg[off])
		switch {
		case c == 0:
			return pos == len(suffix)
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return false
			}
			if budget--; budget < 0 {
				return false
			}
			off = (c&0x3F)<<8 | int(msg[off+1])
		default:
			if off+1+c > len(msg) || pos+c+1 > len(suffix) {
				return false
			}
			if string(msg[off+1:off+1+c]) != suffix[pos:pos+c] || suffix[pos+c] != '.' {
				return false
			}
			pos += c + 1
			off += 1 + c
		}
	}
}

// unpackName reads a possibly-compressed name starting at off and
// returns the canonical name and the offset just past the name's
// in-place encoding (i.e. not following pointers).
func unpackName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	ptrBudget := 64 // guard against pointer loops
	end := -1       // offset after the first pointer, if any
	total := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrNameTruncated
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if sb.Len() == 0 {
				return ".", end, nil
			}
			return sb.String(), end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrNameTruncated
			}
			if ptrBudget--; ptrBudget < 0 {
				return "", 0, ErrBadPointer
			}
			target := (c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				return "", 0, ErrBadPointer
			}
			off = target
		case c&0xC0 != 0:
			return "", 0, ErrBadPointer
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrNameTruncated
			}
			total += c + 1
			if total > maxNameLen {
				return "", 0, ErrNameTooLong
			}
			sb.Write(lowerASCII(msg[off+1 : off+1+c]))
			sb.WriteByte('.')
			off += 1 + c
		}
	}
}

// matchWireName reports whether the possibly-compressed name starting
// at off equals hint (a canonical name), returning the offset just past
// the name's in-place encoding on a match. It never allocates; any
// malformed or non-matching encoding simply reports false and leaves
// the caller to take the unpackName path.
func matchWireName(msg []byte, off int, hint string) (int, bool) {
	pos := 0
	ptrBudget := 64
	end := -1
	for {
		if off >= len(msg) {
			return 0, false
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if pos == len(hint) || (pos == 0 && hint == ".") {
				return end, true
			}
			return 0, false
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, false
			}
			if ptrBudget--; ptrBudget < 0 {
				return 0, false
			}
			target := (c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				return 0, false
			}
			off = target
		case c&0xC0 != 0:
			return 0, false
		default:
			if off+1+c > len(msg) || pos+c+1 > len(hint) {
				return 0, false
			}
			for i := 0; i < c; i++ {
				if foldASCII(msg[off+1+i]) != hint[pos+i] {
					return 0, false
				}
			}
			if hint[pos+c] != '.' {
				return 0, false
			}
			pos += c + 1
			off += 1 + c
		}
	}
}

// lowerASCII lowercases ASCII letters in a label without allocating
// when the label is already lowercase.
func lowerASCII(b []byte) []byte {
	lowered := b
	copied := false
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			if !copied {
				lowered = append([]byte(nil), b...)
				copied = true
			}
			lowered[i] = c + ('a' - 'A')
		}
	}
	return lowered
}

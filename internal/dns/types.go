// Package dns implements the subset of the DNS protocol needed to build
// authoritative servers, stub resolvers, and measurement instrumentation
// for email sender validation: wire-format packing and unpacking with name
// compression, the record types used by SPF, DKIM, and DMARC (A, AAAA, MX,
// TXT, NS, SOA, CNAME, PTR), EDNS0, and UDP/TCP clients and servers.
//
// The package is self-contained and uses only the standard library. It is
// not a general-purpose DNS library: record types outside the needs of
// RFC 7208 (SPF), RFC 6376 (DKIM), and RFC 7489 (DMARC) are carried as
// opaque RDATA.
package dns

import (
	"fmt"
	"strconv"
)

// Type is a DNS resource record type (RFC 1035 §3.2.2).
type Type uint16

// Record types used by the sender-validation protocols.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeSPF   Type = 99 // historic; RFC 7208 deprecates it in favor of TXT
	TypeANY   Type = 255
)

// mnemonic is the one table of type spellings: the standard
// mnemonic, or "" for a type that has none and is written TYPEn
// (RFC 3597).
func (t Type) mnemonic() string {
	switch t {
	case TypeNone:
		return "NONE"
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeSPF:
		return "SPF"
	case TypeANY:
		return "ANY"
	}
	return ""
}

// namedTypes lists every type mnemonic spells, in the order ParseType
// tries them: the query log's types by their share of its entries, then
// the rest in type-number order. The shares are counted over the
// validator mix the bench records from the 39 policies. An
// authdns-serve sweep sends 77 TXT, 35 A and 3 MX queries. In the
// log-ingest log a fully validating MTA leaves 78 TXT, 36 A and 3 MX
// entries and a partial one 40 TXT, so TXT 67%, A 30% and MX 3% over
// the drawn MTAs. No other type occurs in either.
var namedTypes = [...]Type{TypeTXT, TypeA, TypeMX, TypeNone, TypeNS, TypeCNAME, TypeSOA, TypePTR, TypeAAAA, TypeOPT, TypeSPF, TypeANY}

// String returns the standard mnemonic for the type, or TYPEn for
// unknown types per RFC 3597.
func (t Type) String() string {
	if s := t.mnemonic(); s != "" {
		return s
	}
	return string(AppendType(nil, t))
}

// AppendType appends t.String() to dst without allocating beyond
// dst's growth.
func AppendType(dst []byte, t Type) []byte {
	if s := t.mnemonic(); s != "" {
		return append(dst, s...)
	}
	return strconv.AppendUint(append(dst, "TYPE"...), uint64(t), 10)
}

// ParseType is AppendType's inverse, without allocating: a mnemonic,
// or TYPEn with n digits only (leading zeros allowed) and at most
// 65535. Anything else — "TYPE12abc", "TYPE-1", a lower-case
// mnemonic — is refused.
func ParseType(b []byte) (Type, bool) {
	if len(b) > 4 && string(b[:4]) == "TYPE" {
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
		return Type(v), true
	}
	for _, t := range namedTypes {
		if string(b) == t.mnemonic() {
			return t, true
		}
	}
	return 0, false
}

// Class is a DNS class. Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassINET Class = 1
	ClassANY  Class = 255
)

// String returns the standard mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ClassINET:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// RCode is a DNS response code (RFC 1035 §4.1.1).
type RCode uint16

// Response codes.
const (
	RCodeSuccess        RCode = 0 // NOERROR
	RCodeFormatError    RCode = 1 // FORMERR
	RCodeServerFailure  RCode = 2 // SERVFAIL
	RCodeNameError      RCode = 3 // NXDOMAIN
	RCodeNotImplemented RCode = 4 // NOTIMP
	RCodeRefused        RCode = 5 // REFUSED
)

// String returns the standard mnemonic for the response code, or
// RCODEn.
func (r RCode) String() string {
	switch r {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormatError:
		return "FORMERR"
	case RCodeServerFailure:
		return "SERVFAIL"
	case RCodeNameError:
		return "NXDOMAIN"
	case RCodeNotImplemented:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return "RCODE" + strconv.Itoa(int(r))
}

// Opcode is a DNS operation code.
type Opcode uint16

// Opcodes. Only standard queries are supported.
const (
	OpcodeQuery  Opcode = 0
	OpcodeStatus Opcode = 2
)

// String returns the standard mnemonic for the opcode.
func (o Opcode) String() string {
	switch o {
	case OpcodeQuery:
		return "QUERY"
	case OpcodeStatus:
		return "STATUS"
	}
	return fmt.Sprintf("OPCODE%d", uint16(o))
}

package policy

import (
	"math/bits"

	"sendervalid/internal/dns"
)

// RowSet is a set of one catalog policy's rows: what a validator asked
// of it, read off the query log (package fingerprint). Bit n is the
// policy's key n (keys), the same key the server answers by: Base, bit
// 0, is the base name's TXT, and _dmarc has a key too. Unpublished
// stands for every name no row answers.
type RowSet uint64

const (
	Base        RowSet = 1
	Unpublished RowSet = 1 << 63
)

// Policies is the size of the catalog.
const Policies = 39

// catalog numbers every policy's keys once, its _dmarc row included,
// in Catalog order: the served views (Env.responders) answer by these
// keys and Row reads by them.
var catalog = func() (ks [Policies]*keys) {
	for i, t := range Catalog() {
		if ks[i] = newKeys(t.rows, []row{dmarcRow("")}); ks[i].n > 63 {
			panic("policy: " + t.ID + " has more rows than a RowSet holds")
		}
	}
	return ks
}()

// policyOf is test's position in Catalog(), whose IDs are t01…t39 in
// order (TestCatalogComplete).
func policyOf(test string) (int, bool) {
	if len(test) != 3 || test[0] != 't' || test[1] > '9' || test[2] > '9' {
		return 0, false
	}
	p := int(test[1]-'0')*10 + int(test[2]-'0') - 1
	return p, uint(p) < Policies
}

// Row reads a query the way the server answers it, by the one key rule:
// test's policy, by its position in Catalog(), and the row of the owner
// rest names for typ, else the owner's type-0 row, else Unpublished. ok
// is false for a test label outside the catalog.
func Row(test string, rest []string, typ dns.Type) (policy int, row RowSet, ok bool) {
	if policy, ok = policyOf(test); !ok {
		return 0, 0, false
	}
	if n := catalog[policy].find(rest, typ, 0); n >= 0 {
		return policy, 1 << n, true
	}
	return policy, Unpublished, true
}

// Reading is a set of one catalog policy's rows that a §7 reading tests
// an MTA's asked rows against.
type Reading struct {
	Policy int // position in Catalog()
	Rows   RowSet
}

// Holds reports whether row of policy p is one of r's.
func (r Reading) Holds(p int, row RowSet) bool { return p == r.Policy && row&r.Rows != 0 }

// Len is the number of r's rows.
func (r Reading) Len() int { return bits.OnesCount64(uint64(r.Rows)) }

// reading names rows of test's table; it panics on one the table lacks.
func reading(test string, rows []row) Reading {
	r := Reading{}
	r.Policy, _ = policyOf(test)
	for _, x := range rows {
		n := catalog[r.Policy].key(x.owner, x.typ)
		if n < 0 {
			panic("policy: " + test + " has no row " + x.owner + " " + x.typ.String())
		}
		r.Rows |= 1 << n
	}
	return r
}

// The readings of §7, each built from the value that writes its rows
// into the catalog.
var (
	SerialTarget = reading("t01", addrs(serialTarget))              // the a-mechanism target
	SerialLast   = reading("t01", serialChain[len(serialChain)-1:]) // the shaped chain's last include
	LimitsTree   = reading("t02", limitsRows()[1:])                 // the 46 policies below the base
	HELO         = reading("t03", heloRows)                         // the HELO name's policy
	MainAfter    = reading("t04", addrs(mainAfter))                 // the name right of the syntax error
	ChildCont    = reading("t05", addrs(childCont))                 // the name past the erring include
	Void         = reading("t06", noAddrs(voidNames...))            // the five void names' addresses
	MXFallback   = reading("t07", noAddrs(noMX))                    // the MX-less name's addresses
	MultiOne     = reading("t08", addrs(multiOne))                  // the first record's a target
	MultiTwo     = reading("t08", addrs(multiTwo))                  // the second record's
	Truncated    = reading("t09", tcpFallback)                      // every row truncated over UDP
	IPv6Only     = reading("t10", ipv6Only)                         // the include served over IPv6 only
	MXHosts      = reading("t11", addrs(mxHosts...))                // the twenty MX hosts' addresses
)

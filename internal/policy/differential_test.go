package policy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/resolver"
)

// TestStdlibResolverDifferential puts the standard library's pure-Go
// stub resolver beside resolver.Resolver as a second implementation of
// the client side: both ask a live server for every name the golden
// file publishes, under TXT, A, AAAA and MX, and must agree on each
// answer — the same records in any order, both empty, or both an
// error. That spans t09's truncation (both retry over TCP), t27's
// multi-string TXT, t10's refusal over IPv4 and t37's CNAME.
func TestStdlibResolverDifferential(t *testing.T) {
	env := &Env{Suffix: suffix, TimeScale: 0.001}
	responders := RespondersWithDMARC(env, "contact@dns-lab.example")
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{{Suffix: suffix, Responders: responders}}}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	ours := resolver.New(resolver.Config{Server: addr.String(), Timeout: 3 * time.Second})
	std := &net.Resolver{PreferGo: true, Dial: func(ctx context.Context, network, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addr.String())
	}}
	ctx := context.Background()
	ourLookups := []lookup{
		func(n string) ([]string, error) { return ours.LookupTXT(ctx, n) },
		func(n string) ([]string, error) { return addrStrings(ours.LookupA(ctx, n)) },
		func(n string) ([]string, error) { return addrStrings(ours.LookupAAAA(ctx, n)) },
		func(n string) ([]string, error) {
			mxs, err := ours.LookupMX(ctx, n)
			var out []string
			for _, mx := range mxs {
				out = append(out, fmt.Sprint(mx.Preference, " ", dns.CanonicalName(mx.Host)))
			}
			return out, err
		},
	}
	stdLookups := stdLookups(ctx, std)

	asked, differ := 0, 0
	for _, test := range Catalog() {
		for _, name := range publishedNames(t, test.ID, responders[test.ID]) {
			for i, typ := range lookupTypes {
				asked++
				got, want := render(stdLookups[i](name)), render(ourLookups[i](name))
				if got != want {
					if differ++; differ <= 20 {
						t.Errorf("%s %s: net.Resolver %q, resolver.Resolver %q", name, typ, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d lookups, %d differ", asked, differ)

	// t37's policy name is a CNAME, answered under TXT only: the TXT
	// both resolvers agreed on above must be the alias target's.
	base := "t37." + goldenMTA + "." + suffix
	viaAlias, err := std.LookupTXT(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := std.LookupTXT(ctx, "real."+base)
	if err != nil || len(viaAlias) != 1 || len(direct) != 1 || viaAlias[0] != direct[0] {
		t.Errorf("TXT %s: %q, want the CNAME target's %q (%v)", base, viaAlias, direct, err)
	}
}

// lookup is one record type's lookup, its answer reduced to strings:
// TXT records joined, addresses, and "pref host" for MX.
type lookup func(name string) ([]string, error)

// lookupTypes are the record types the differential tests ask, in the
// order of stdLookups.
var lookupTypes = []dns.Type{dns.TypeTXT, dns.TypeA, dns.TypeAAAA, dns.TypeMX}

// stdLookups gives net.Resolver's lookup for each of lookupTypes.
func stdLookups(ctx context.Context, std *net.Resolver) []lookup {
	return []lookup{
		func(n string) ([]string, error) { return std.LookupTXT(ctx, n) },
		func(n string) ([]string, error) { return addrStrings(std.LookupNetIP(ctx, "ip4", n)) },
		func(n string) ([]string, error) { return addrStrings(std.LookupNetIP(ctx, "ip6", n)) },
		func(n string) ([]string, error) {
			mxs, err := std.LookupMX(ctx, n)
			var out []string
			for _, mx := range mxs {
				out = append(out, fmt.Sprint(mx.Pref, " ", dns.CanonicalName(mx.Host)))
			}
			return out, err
		},
	}
}

func addrStrings(as []netip.Addr, err error) ([]string, error) {
	var out []string
	for _, a := range as {
		out = append(out, a.String())
	}
	return out, err
}

// render reduces an answer to what both sides can express: a
// not-found error from net.Resolver is the empty answer
// resolver.Resolver gives without one.
func render(recs []string, err error) string {
	var dnsErr *net.DNSError
	switch {
	case err == nil && len(recs) == 0, errors.As(err, &dnsErr) && dnsErr.IsNotFound:
		return "empty"
	case err != nil:
		return "error"
	}
	sort.Strings(recs)
	return strings.Join(recs, " | ")
}

// FuzzStdlibResolverParse puts the standard library's DNS parser beside
// dns.Message.Unpack. The input spells an answer section of TXT
// (multi-string), A, AAAA, MX and CNAME records in any order; the
// response, packed with name compression under the query's ID and
// question, is served with TCP framing to net.Resolver for each of
// lookupTypes. What the resolver returns must be the records of that
// type Unpack reads from the same bytes, as sorted sets. The seeds are
// the answers to every lookup TestStdlibResolverDifferential makes.
func FuzzStdlibResolverParse(f *testing.F) {
	responders := RespondersWithDMARC(&Env{Suffix: suffix}, "contact@dns-lab.example")
	seeded := map[string]bool{}
	for _, test := range Catalog() {
		for _, name := range publishedNames(f, test.ID, responders[test.ID]) {
			for _, typ := range lookupTypes {
				q := testQuery(name)
				q.Type = typ
				seed := encodeAnswers(responders[test.ID].Respond(&q).Records)
				if !seeded[string(seed)] {
					seeded[string(seed)] = true
					f.Add(seed)
				}
			}
		}
	}

	const qname = "fuzz.m0001." + suffix
	var wire []byte // the response the next dial serves
	std := &net.Resolver{PreferGo: true, Dial: func(context.Context, string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go func(resp []byte) {
			defer server.Close()
			query, err := dns.ReadTCPMessage(server)
			if err != nil || len(query) < 2 {
				return
			}
			resp = append([]byte(nil), resp...)
			copy(resp, query[:2]) // the query's ID
			_ = dns.WriteTCPMessage(server, resp)
		}(wire)
		return client, nil
	}}
	lookups := stdLookups(context.Background(), std)

	f.Fuzz(func(t *testing.T, data []byte) {
		answers, ok := decodeAnswers(data)
		if !ok {
			return
		}
		for i, typ := range lookupTypes {
			resp := dns.Message{Response: true, Authoritative: true, RecursionDesired: true, RecursionAvailable: true,
				Questions: []dns.Question{{Name: qname, Type: typ, Class: dns.ClassINET}}, Answers: answers}
			packed, err := resp.AppendPack(nil)
			if err != nil || len(packed) > 0xFFFF {
				return // not representable on the wire
			}
			var m dns.Message
			if err := m.Unpack(packed); err != nil {
				t.Fatalf("Unpack of a packed response: %v", err)
			}
			var want []string
			for _, rr := range m.Answers {
				if rr.Type != typ {
					continue
				}
				switch d := rr.Data.(type) {
				case *dns.TXT:
					want = append(want, d.Joined())
				case *dns.A:
					want = append(want, d.Addr.String())
				case *dns.AAAA:
					want = append(want, d.Addr.String())
				case *dns.MX:
					want = append(want, fmt.Sprint(d.Preference, " ", dns.CanonicalName(d.Host)))
				}
			}
			wire = packed
			if got, want := render(lookups[i](qname)), render(want, nil); got != want {
				t.Errorf("%s: net.Resolver %q, dns.Message.Unpack %q\nanswers: %v", typ, got, want, answers)
			}
		}
	})
}

// nameAlphabet spells the names of a fuzz input: one input byte is one
// character, modulo the alphabet's length.
const nameAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_."

var hostname = regexp.MustCompile(`^([a-z0-9_]([a-z0-9_-]*[a-z0-9_])?\.)+$`)

// decodeAnswers reads answer records from a fuzz input: per record a
// kind byte (modulo 5: TXT, A, AAAA, MX, CNAME), a name (a length byte,
// then that many nameAlphabet characters; the root dot is implied),
// then its data. TXT data is a count byte (modulo 16, plus one) of
// length-prefixed strings; A and AAAA are 4 and 16 raw bytes; MX is a
// two-byte preference and a name; CNAME is a name. A record the input
// ends inside is dropped. ok is false for what net.Resolver handles
// apart by design: an IPv4-mapped AAAA address, which it files under
// IPv4, and an MX host that is not a hostname (labels of letters,
// digits, '_' and inner '-', not all digits), which LookupMX refuses.
func decodeAnswers(data []byte) (rrs []dns.RR, ok bool) {
	take := func(n int) []byte {
		if n > len(data) {
			data = nil
			return nil
		}
		b := data[:n:n]
		data = data[n:]
		return b
	}
	name := func() (string, bool) {
		l := take(1)
		if l == nil {
			return "", false
		}
		raw := take(int(l[0]))
		if raw == nil && l[0] > 0 {
			return "", false
		}
		var sb strings.Builder
		for _, c := range raw {
			sb.WriteByte(nameAlphabet[int(c)%len(nameAlphabet)])
		}
		return sb.String() + ".", true
	}
	for len(data) > 0 && len(rrs) < 64 {
		kind := take(1)[0] % 5
		owner, ok := name()
		if !ok {
			break
		}
		rr := dns.RR{Name: owner, Class: dns.ClassINET, TTL: 300}
		switch kind {
		case 0:
			n := take(1)
			if n == nil {
				return rrs, true
			}
			txt := &dns.TXT{}
			for range int(n[0])%16 + 1 {
				l := take(1)
				if l == nil {
					return rrs, true
				}
				s := take(int(l[0]))
				if s == nil && l[0] > 0 {
					return rrs, true
				}
				txt.Strings = append(txt.Strings, string(s))
			}
			rr.Type, rr.Data = dns.TypeTXT, txt
		case 1, 2:
			raw := take(4 + 12*int(kind-1))
			addr, valid := netip.AddrFromSlice(raw)
			if !valid {
				return rrs, true
			}
			if addr.Is4In6() {
				return nil, false
			}
			if kind == 1 {
				rr.Type, rr.Data = dns.TypeA, &dns.A{Addr: addr}
			} else {
				rr.Type, rr.Data = dns.TypeAAAA, &dns.AAAA{Addr: addr}
			}
		case 3:
			pref := take(2)
			host, ok := name()
			if pref == nil || !ok {
				return rrs, true
			}
			if !hostname.MatchString(host) || !strings.ContainsAny(host, "abcdefghijklmnopqrstuvwxyz_-") {
				return nil, false
			}
			rr.Type, rr.Data = dns.TypeMX, &dns.MX{Preference: uint16(pref[0])<<8 | uint16(pref[1]), Host: host}
		case 4:
			target, ok := name()
			if !ok {
				return rrs, true
			}
			rr.Type, rr.Data = dns.TypeCNAME, &dns.CNAME{Target: target}
		}
		rrs = append(rrs, rr)
	}
	return rrs, true
}

// encodeAnswers is decodeAnswers' inverse, for seeding the fuzz target
// with real answers. Records of other types are left out.
func encodeAnswers(rrs []dns.RR) []byte {
	var b []byte
	name := func(n string) {
		n = strings.TrimSuffix(dns.CanonicalName(n), ".")
		b = append(b, byte(len(n)))
		for i := 0; i < len(n); i++ {
			b = append(b, byte(strings.IndexByte(nameAlphabet, n[i])))
		}
	}
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case *dns.TXT:
			b = append(b, 0)
			name(rr.Name)
			b = append(b, byte(len(d.Strings)-1))
			for _, s := range d.Strings {
				b = append(append(b, byte(len(s))), s...)
			}
		case *dns.A:
			b = append(b, 1)
			name(rr.Name)
			b = append(b, d.Addr.AsSlice()...)
		case *dns.AAAA:
			b = append(b, 2)
			name(rr.Name)
			b = append(b, d.Addr.AsSlice()...)
		case *dns.MX:
			b = append(b, 3)
			name(rr.Name)
			b = append(b, byte(d.Preference>>8), byte(d.Preference))
			name(d.Host)
		case *dns.CNAME:
			b = append(b, 4)
			name(rr.Name)
			name(d.Target)
		}
	}
	return b
}

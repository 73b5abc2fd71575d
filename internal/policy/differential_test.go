package policy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
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

	type lookup func(name string) ([]string, error)
	addrs := func(as []netip.Addr, err error) ([]string, error) {
		var out []string
		for _, a := range as {
			out = append(out, a.String())
		}
		return out, err
	}
	pairs := []struct {
		typ       string
		ours, std lookup
	}{
		{"TXT", func(n string) ([]string, error) { return ours.LookupTXT(ctx, n) },
			func(n string) ([]string, error) { return std.LookupTXT(ctx, n) }},
		{"A", func(n string) ([]string, error) { return addrs(ours.LookupA(ctx, n)) },
			func(n string) ([]string, error) { return addrs(std.LookupNetIP(ctx, "ip4", n)) }},
		{"AAAA", func(n string) ([]string, error) { return addrs(ours.LookupAAAA(ctx, n)) },
			func(n string) ([]string, error) { return addrs(std.LookupNetIP(ctx, "ip6", n)) }},
		{"MX", func(n string) ([]string, error) {
			mxs, err := ours.LookupMX(ctx, n)
			var out []string
			for _, mx := range mxs {
				out = append(out, fmt.Sprint(mx.Preference, " ", dns.CanonicalName(mx.Host)))
			}
			return out, err
		}, func(n string) ([]string, error) {
			mxs, err := std.LookupMX(ctx, n)
			var out []string
			for _, mx := range mxs {
				out = append(out, fmt.Sprint(mx.Pref, " ", dns.CanonicalName(mx.Host)))
			}
			return out, err
		}},
	}
	// render reduces an answer to what both resolvers can express: a
	// not-found error from net.Resolver is the empty answer
	// resolver.Resolver gives without one.
	render := func(recs []string, err error) string {
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

	asked, differ := 0, 0
	for _, test := range Catalog() {
		for _, name := range publishedNames(t, test.ID, responders[test.ID]) {
			for _, p := range pairs {
				asked++
				got, want := render(p.std(name)), render(p.ours(name))
				if got != want {
					if differ++; differ <= 20 {
						t.Errorf("%s %s: net.Resolver %q, resolver.Resolver %q", name, p.typ, got, want)
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

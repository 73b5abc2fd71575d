package experiment

import (
	"context"
	"fmt"
	"sort"

	"sendervalid/internal/dataset"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/probe"
	"sendervalid/internal/resolver"
)

// recipientZone publishes the population's recipient-domain DNS: MX
// record sets for every domain and A/AAAA records for every MX host.
// With it, the NotifyEmail sender performs real, specification-shaped
// mail-server selection — MX lookup, preference ordering, address
// resolution — instead of reading targets out of the dataset structs
// (paper §4.6: deliveries complied "as closely as possible to
// specification, including mail server selection").
func recipientZone(pop *dataset.Population) *dnsserver.Zone {
	static := dnsserver.NewStatic()
	for _, d := range pop.Domains {
		for i, m := range d.MTAs {
			static.MX(d.Name, uint16(10*(i+1)), m.Hostname+".")
		}
	}
	for _, m := range pop.MTAs {
		if m.Addr4.IsValid() {
			static.A(m.Hostname, m.Addr4)
		}
		if m.Addr6.IsValid() {
			static.AAAA(m.Hostname, m.Addr6)
		}
	}
	return &dnsserver.Zone{
		// A catch-all zone: recipient domains span arbitrary TLDs.
		Suffix:     ".",
		LabelDepth: 1,
		NoLog:      true,
		Default:    static,
	}
}

// ResolveTargets performs the sending MTA's recipient resolution: MX
// lookup, preference ordering, and A/AAAA resolution of each exchanger
// (RFC 5321 §5.1). It returns the delivery targets in preference
// order.
func ResolveTargets(ctx context.Context, res *resolver.Resolver, domain string) ([]probe.Target, error) {
	mxs, err := res.LookupMX(ctx, domain)
	if err != nil {
		return nil, fmt.Errorf("experiment: MX %s: %w", domain, err)
	}
	if len(mxs) == 0 {
		// Implicit MX (RFC 5321 §5.1): fall back to the domain's own
		// address records.
		return resolveHost(ctx, res, domain)
	}
	sort.SliceStable(mxs, func(i, j int) bool { return mxs[i].Preference < mxs[j].Preference })
	var out []probe.Target
	for _, mx := range mxs {
		targets, err := resolveHost(ctx, res, mx.Host)
		if err != nil {
			continue
		}
		out = append(out, targets...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no address records for any MX of %s", domain)
	}
	return out, nil
}

func resolveHost(ctx context.Context, res *resolver.Resolver, host string) ([]probe.Target, error) {
	var t probe.Target
	if a, err := res.LookupA(ctx, host); err == nil && len(a) > 0 {
		t.Addr4 = a[0]
	}
	if aaaa, err := res.LookupAAAA(ctx, host); err == nil && len(aaaa) > 0 {
		t.Addr6 = aaaa[0]
	}
	if !t.Addr4.IsValid() && !t.Addr6.IsValid() {
		return nil, fmt.Errorf("experiment: %s has no address records", host)
	}
	return []probe.Target{t}, nil
}

// senderResolver builds the sending MTA's resolver against the world's
// DNS service, querying from the sender's own fabric addresses.
func (w *World) senderResolver() *resolver.Resolver {
	return resolver.New(resolver.Config{
		Server:  w.DNSAddr,
		Server6: w.DNSAddr6,
		Timeout: w.cfg.DNSTimeout,
		Dialer:  w.Fabric.BoundDialer(SenderAddr4, SenderAddr6),
	})
}

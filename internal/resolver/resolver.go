// Package resolver implements the stub DNS resolver used by simulated
// mail transfer agents. It speaks to a single upstream (recursive or
// authoritative) server over UDP with automatic TCP retry on
// truncation, supports IPv4-only, IPv6-only, and dual-stack transport
// policies, and keeps a positive/negative cache.
//
// The resolver satisfies the spf.Resolver contract: lookups that
// complete with no records (NXDOMAIN or an empty answer) return
// (nil, nil); transport and server failures return errors.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/spf"
	"sendervalid/internal/trace"
)

// TransportPolicy selects the address families the resolver may use to
// reach its upstream server.
type TransportPolicy int

// Transport policies.
const (
	// DualStack tries the upstream over whichever family its address
	// uses; both IPv4 and IPv6 upstreams are usable.
	DualStack TransportPolicy = iota
	// IPv4Only refuses IPv6 upstream addresses. Resolvers behind such
	// a policy cannot retrieve policies served only on IPv6 — the
	// behaviour the paper's IPv6 test policy detects (§7.3).
	IPv4Only
	// IPv6Only refuses IPv4 upstream addresses.
	IPv6Only
)

// ServerError reports a non-success RCODE from the upstream server.
// NXDOMAIN is not a ServerError; it is an empty result.
type ServerError struct {
	Name  string
	RCode dns.RCode
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("resolver: %s for %s", e.RCode, e.Name)
}

// Config configures a Resolver.
type Config struct {
	// Server is the upstream address ("ip:port"). For a dual-homed
	// upstream, Server6 optionally carries the IPv6 endpoint.
	Server string
	// Server6 is the upstream's IPv6 endpoint, used under IPv6Only or
	// DualStack when set.
	Server6 string
	// Transport restricts address families.
	Transport TransportPolicy
	// Timeout bounds one exchange. Zero means 5 seconds.
	Timeout time.Duration
	// DisableTCP prevents the TCP retry after a truncated UDP
	// response. The paper found only 2 of 1336 resolvers with this
	// defect (§7.3).
	DisableTCP bool
	// Dialer, when set, overrides socket creation (used to route
	// queries through a simulated network fabric).
	Dialer dns.Dialer
	// TimeScale is how many wall-clock seconds one second of a TTL
	// lasts (zero means 1). A simulated world that runs its delays at
	// a fraction of paper time passes its factor, so cached answers
	// expire on the same clock as those delays.
	TimeScale float64
}

// Resolver is a caching stub resolver bound to one upstream server.
// It is safe for concurrent use. Its cache is one table: each key
// holds its answer or the one wire exchange in flight for it, so cache
// hits share one read lock on one map, and concurrent identical
// queries cost one exchange, not one per caller (see cache).
type Resolver struct {
	cfg    Config
	client *dns.Client
	cache  *cache
}

// cacheEntries is the cache's capacity, exactly.
const cacheEntries = 4096

// failureTTL is how long a resolution failure (cachedFailure) stays
// cached, in the TTLs' time (see Config.TimeScale). RFC 9520 §3.2 has
// a resolver cache a failure for at least 5 seconds, doubling the time
// for a failure that persists, and never for more than 5 minutes; this
// is its floor, without the back-off.
const failureTTL = 5 * time.Second

// maxRetries is how many times a query is re-sent after a transport
// failure — a timeout, a connection reset mid-message, a truncated or
// short TCP read — before the error is surfaced. Server failures
// (non-success RCODEs) are never retried.
const maxRetries = 2

// New creates a Resolver from cfg.
func New(cfg Config) *Resolver {
	return &Resolver{
		cfg: cfg,
		client: &dns.Client{
			Timeout:            cfg.Timeout,
			Dialer:             cfg.Dialer,
			DisableTCPFallback: cfg.DisableTCP,
		},
		cache: newCache(cacheEntries),
	}
}

// server picks the upstream endpoint honouring the transport policy.
func (r *Resolver) server() (string, error) {
	v4, v6 := r.cfg.Server, r.cfg.Server6
	if v4 != "" && isV6HostPort(v4) {
		v4, v6 = "", v4
	}
	switch r.cfg.Transport {
	case IPv4Only:
		if v4 == "" {
			return "", fmt.Errorf("resolver: upstream reachable only over IPv6 under IPv4-only policy")
		}
		return v4, nil
	case IPv6Only:
		if v6 == "" {
			return "", fmt.Errorf("resolver: upstream reachable only over IPv4 under IPv6-only policy")
		}
		return v6, nil
	default:
		if v4 != "" {
			return v4, nil
		}
		if v6 != "" {
			return v6, nil
		}
		return "", fmt.Errorf("resolver: no upstream server configured")
	}
}

// isV6HostPort reports whether hostport has a bracketed IPv6 host.
func isV6HostPort(hostport string) bool {
	return strings.HasPrefix(hostport, "[")
}

// Exchange resolves (name, t) against the upstream, consulting the
// cache first. Concurrent identical queries share one wire exchange:
// the first caller to miss leads, later callers wait for its result,
// and a caller that misses as the exchange finishes finds its answer.
// A waiter whose context is cancelled returns promptly while the
// exchange itself keeps running under a flight-owned context and still
// populates the cache. Transport failures — timeouts, resets,
// short TCP reads from a dying connection — are retried up to
// maxRetries times, so the faults a hostile network injects between
// the stub and its upstream do not surface as measurement noise, and
// are never cached. Non-success RCODEs are surfaced immediately, and a
// REFUSED or SERVFAIL answer is cached as a failure (failureTTL).
//
// A cache hit copies nothing: the key is the name as given, less its
// trailing dot (keyFor), and the canonical spelling the wire and the
// spans need is built only on a miss or for a recorded span.
func (r *Resolver) Exchange(ctx context.Context, name string, t dns.Type) (*dns.Message, error) {
	key := keyFor(name, t)
	ctx, sp := trace.Start(ctx, "resolver.exchange")
	if sp != nil {
		sp.SetAttr("dns.name", dns.CanonicalName(name))
		sp.SetAttr("dns.type", t.String())
	}
	now := time.Now()
	if e, ok := r.cache.get(key, now); ok {
		sp.SetAttr("outcome", "cache")
		sp.SetError(e.err)
		sp.End()
		return e.msg, e.err
	}
	if err := ctx.Err(); err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	// A miss: the wire gets the canonical spelling, and the flight and
	// the entry it caches key on a substring of it, not of the caller's
	// string.
	name = dns.CanonicalName(name)
	key.name = name[:len(name)-1]
	e, leader := r.cache.join(key, now)
	switch {
	case e.call == nil:
		sp.SetAttr("outcome", "cache")
		sp.SetError(e.err)
		sp.End()
		return e.msg, e.err
	case leader:
		sp.SetAttr("singleflight", "leader")
		go r.lead(key, e.call, name, t, sp.Link())
	default:
		sp.SetAttr("singleflight", "waiter")
	}
	select {
	case <-e.call.done:
		sp.SetError(e.call.err)
		sp.End()
		return e.call.msg, e.call.err
	case <-ctx.Done():
		r.cache.leave(e.call)
		sp.SetError(ctx.Err())
		sp.End()
		return nil, ctx.Err()
	}
}

// lead performs a flight's wire exchange under the flight-owned
// context and finishes the flight: a successful response stays cached
// for minTTL, a resolution failure for failureTTL, both scaled by
// Config.TimeScale; any other error, and a negative answer without an
// SOA, is not cached. link
// carries the leading Exchange span's identity (a value snapshot — the
// span itself may already be recycled by the time this goroutine
// runs).
func (r *Resolver) lead(key cacheKey, f *flight, name string, t dns.Type, link trace.Link) {
	wsp := link.Start("resolver.wire")
	if wsp != nil {
		wsp.SetAttr("dns.name", name)
		wsp.SetAttr("dns.type", t.String())
	}
	msg, err := r.exchangeWithRetry(f.ctx, name, t)
	wsp.SetError(err)
	wsp.End()
	var ttl time.Duration
	switch {
	case err == nil:
		ttl = minTTL(msg)
	case cachedFailure(err):
		ttl = failureTTL
	}
	var expires time.Time
	if ttl > 0 {
		if r.cfg.TimeScale > 0 {
			ttl = time.Duration(float64(ttl) * r.cfg.TimeScale)
		}
		expires = time.Now().Add(ttl)
	}
	r.cache.finish(key, f, msg, expires, err)
}

// cachedFailure reports whether err is one of the resolution failures
// RFC 9520 has a resolver cache: the upstream answered REFUSED or
// SERVFAIL. A transport error or a cancellation is not cached.
func cachedFailure(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && (se.RCode == dns.RCodeRefused || se.RCode == dns.RCodeServerFailure)
}

// exchangeWithRetry is the wire path: one exchange plus the
// transport-fault retry loop.
func (r *Resolver) exchangeWithRetry(ctx context.Context, name string, t dns.Type) (*dns.Message, error) {
	var resp *dns.Message
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = r.exchangeOnce(ctx, name, t)
		if err == nil {
			break
		}
		if ctx.Err() != nil || attempt >= maxRetries || !retryable(err) {
			return nil, err
		}
	}
	switch resp.RCode {
	case dns.RCodeSuccess, dns.RCodeNameError:
	default:
		return nil, &ServerError{Name: name, RCode: resp.RCode}
	}
	return resp, nil
}

// exchangeOnce performs one full query round, including the IPv6
// endpoint fallback.
func (r *Resolver) exchangeOnce(ctx context.Context, name string, t dns.Type) (*dns.Message, error) {
	server, err := r.server()
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Query(ctx, server, name, t)
	if err != nil {
		return nil, err
	}
	if resp.RCode == dns.RCodeRefused && r.cfg.Server6 != "" &&
		server != r.cfg.Server6 && r.cfg.Transport != IPv4Only {
		// The name may be served only on the upstream's IPv6 endpoint
		// (the paper's IPv6 test policy publishes AAAA-only name
		// servers). A v6-capable resolver retries there; an IPv4-only
		// resolver cannot and fails.
		resp, err = r.client.Query(ctx, r.cfg.Server6, name, t)
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// retryable classifies an exchange error as a transient transport
// fault worth re-sending the query for: deadline expiry, refused or
// reset connections, and short reads from a connection that died
// mid-message (io.EOF / io.ErrUnexpectedEOF out of the TCP framing
// layer). Everything else — packing errors, configuration errors —
// is surfaced immediately.
func retryable(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr) && netErr.Timeout()
}

// minTTL returns how long msg may be cached, in the TTLs' time: the
// smallest answer TTL, or for a negative answer (NXDOMAIN, or no
// records) min(SOA TTL, SOA MINIMUM) of the SOA in its authority
// section (RFC 2308 §5), clamped to [1s, 1h]. A negative answer
// without an SOA is not cached (0), as RFC 2308 §5 asks.
func minTTL(msg *dns.Message) time.Duration {
	ttl := uint32(3600)
	for _, rr := range msg.Answers {
		ttl = min(ttl, rr.TTL)
	}
	if len(msg.Answers) == 0 {
		i := slices.IndexFunc(msg.Authority, func(rr dns.RR) bool {
			_, ok := rr.Data.(*dns.SOA)
			return ok
		})
		if i < 0 {
			return 0
		}
		ttl = min(ttl, msg.Authority[i].TTL, msg.Authority[i].Data.(*dns.SOA).Minimum)
	}
	return time.Duration(max(ttl, 1)) * time.Second
}

// lookup exchanges (name, t) and converts the data of every answer of
// type t owned by name, following CNAME chains within the response.
// The result is built in one pass into a slice sized for the rest of
// the answer section; it is nil when no record matches (a void lookup).
func lookup[T any](ctx context.Context, r *Resolver, name string, t dns.Type, conv func(dns.RData) T) ([]T, error) {
	msg, err := r.Exchange(ctx, name, t)
	if err != nil {
		return nil, err
	}
	// Follow in-response CNAMEs (bounded by the answer count).
	for range msg.Answers {
		redirected := false
		for _, rr := range msg.Answers {
			if rr.Type == dns.TypeCNAME && dns.EqualNames(rr.Name, name) {
				name = rr.Data.(*dns.CNAME).Target
				redirected = true
				break
			}
		}
		if !redirected {
			break
		}
	}
	var out []T
	for i := range msg.Answers {
		if rr := &msg.Answers[i]; rr.Type == t && dns.EqualNames(rr.Name, name) {
			if out == nil {
				out = make([]T, 0, len(msg.Answers)-i)
			}
			out = append(out, conv(rr.Data))
		}
	}
	return out, nil
}

// LookupTXT implements spf.Resolver.
func (r *Resolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	return lookup(ctx, r, name, dns.TypeTXT, func(d dns.RData) string { return d.(*dns.TXT).Joined() })
}

// LookupA implements spf.Resolver.
func (r *Resolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	return lookup(ctx, r, name, dns.TypeA, func(d dns.RData) netip.Addr { return d.(*dns.A).Addr })
}

// LookupAAAA implements spf.Resolver.
func (r *Resolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	return lookup(ctx, r, name, dns.TypeAAAA, func(d dns.RData) netip.Addr { return d.(*dns.AAAA).Addr })
}

// LookupMX implements spf.Resolver.
func (r *Resolver) LookupMX(ctx context.Context, name string) ([]spf.MXRecord, error) {
	return lookup(ctx, r, name, dns.TypeMX, func(d dns.RData) spf.MXRecord {
		mx := d.(*dns.MX)
		return spf.MXRecord{Preference: mx.Preference, Host: mx.Host}
	})
}

// LookupPTR implements spf.Resolver.
func (r *Resolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	return lookup(ctx, r, ReverseName(ip), dns.TypePTR, func(d dns.RData) string { return d.(*dns.PTR).Target })
}

// ReverseName returns the in-addr.arpa or ip6.arpa name for ip.
func ReverseName(ip netip.Addr) string {
	if ip.Is4() || ip.Is4In6() {
		a4 := ip.Unmap().As4()
		return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa.", a4[3], a4[2], a4[1], a4[0])
	}
	raw := ip.As16()
	var sb strings.Builder
	for i := 15; i >= 0; i-- {
		fmt.Fprintf(&sb, "%x.%x.", raw[i]&0xF, raw[i]>>4)
	}
	sb.WriteString("ip6.arpa.")
	return sb.String()
}

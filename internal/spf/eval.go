package spf

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sendervalid/internal/trace"
)

// MXRecord is a mail exchanger returned by a Resolver.
type MXRecord struct {
	Preference uint16
	Host       string
}

// Resolver is the DNS interface SPF evaluation consumes.
//
// Contract: a lookup that completes but yields no records (NXDOMAIN or
// an empty answer) returns (nil, nil) — SPF counts it as a "void
// lookup". A non-nil error means a transient failure (SERVFAIL,
// timeout, unreachable server) and yields temperror.
type Resolver interface {
	// LookupTXT returns one string per TXT record, with each record's
	// character-strings concatenated.
	LookupTXT(ctx context.Context, name string) ([]string, error)
	// LookupA returns IPv4 addresses for name.
	LookupA(ctx context.Context, name string) ([]netip.Addr, error)
	// LookupAAAA returns IPv6 addresses for name.
	LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error)
	// LookupMX returns the MX record set for name.
	LookupMX(ctx context.Context, name string) ([]MXRecord, error)
	// LookupPTR returns the names the address reverse-resolves to.
	LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error)
}

// Default specification limits (RFC 7208 §4.6.4).
const (
	DefaultLookupLimit     = 10
	DefaultVoidLookupLimit = 2
	DefaultMXAddressLimit  = 10
	DefaultPTRLimit        = 10
)

// Options tunes evaluation. The zero value is a fully RFC 7208
// compliant validator. The violation knobs reproduce the
// non-compliant behaviours observed in the wild by the measurement
// study (paper §7); each is off by default.
type Options struct {
	// LookupLimit caps DNS-querying terms. 0 means the specified
	// default of 10; negative means unlimited (a violation).
	LookupLimit int
	// VoidLookupLimit caps lookups yielding no records. 0 means the
	// recommended default of 2; negative means unlimited (a violation).
	VoidLookupLimit int
	// MXAddressLimit caps address lookups per "mx" mechanism. 0 means
	// the specified default of 10; negative means unlimited (a
	// violation).
	MXAddressLimit int
	// Timeout bounds the whole evaluation from its first DNS wait: an
	// evaluation answered wholly from a resolver's cache starts no
	// timer. 0 means 20 seconds, the specification's recommended
	// minimum.
	Timeout time.Duration
	// IgnoreSyntaxErrors continues evaluation past malformed terms
	// instead of returning permerror (a violation).
	IgnoreSyntaxErrors bool
	// FollowMultipleRecords evaluates the first record when a domain
	// publishes several SPF records, instead of permerror (a
	// violation).
	FollowMultipleRecords bool
	// MXFallbackA issues an A/AAAA lookup for the mx target domain
	// when the MX lookup yields nothing, mirroring SMTP's implicit-MX
	// rule. RFC 7208 explicitly disallows this (a violation).
	MXFallbackA bool
	// Prefetch launches the DNS lookups implied by every mechanism of
	// a record concurrently as soon as the record is parsed, instead
	// of querying on demand. This is the "parallel" strategy §7.1 of
	// the paper distinguishes from the dominant serial strategy.
	Prefetch bool
	// Receiver is the validating host's name, used by the %{r} macro.
	Receiver string
}

func (o *Options) lookupLimit() int    { return defaulted(o.LookupLimit, DefaultLookupLimit) }
func (o *Options) voidLimit() int      { return defaulted(o.VoidLookupLimit, DefaultVoidLookupLimit) }
func (o *Options) mxAddressLimit() int { return defaulted(o.MXAddressLimit, DefaultMXAddressLimit) }
func (o *Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 20 * time.Second
}

func defaulted(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return int(^uint(0) >> 1) // effectively unlimited
	default:
		return v
	}
}

// Checker evaluates SPF for incoming connections.
type Checker struct {
	Resolver Resolver
	Options  Options
}

// Outcome is the result of one check_host() evaluation plus
// diagnostics useful for measurement.
type Outcome struct {
	Result Result
	// Explanation is the expanded exp= string, set only on Fail when
	// the policy supplies one.
	Explanation string
	// Lookups counts DNS-querying terms consumed.
	Lookups int
	// VoidLookups counts lookups that yielded no records.
	VoidLookups int
	// Err carries detail for temperror/permerror results.
	Err error
}

// state threads evaluation counters through recursion. Its budget is
// the context every lookup of the evaluation runs under.
type state struct {
	budget      budget
	lookups     int
	voidLookups int
	depth       int
	prefetchWG  sync.WaitGroup
}

// budget is check_host()'s evaluation context: its parent, bounded by
// timeout from the first call to Done or Deadline — in practice the
// first lookup that waits. Until then Err is the parent's and nothing
// is registered with the parent, so an evaluation served wholly from a
// cache costs no timer. Arming is safe from the prefetch goroutines.
type budget struct {
	parent  context.Context
	timeout time.Duration
	once    sync.Once
	armed   atomic.Bool // set once ctx and cancel are
	ctx     context.Context
	cancel  context.CancelFunc
}

func (b *budget) arm() context.Context {
	b.once.Do(func() {
		b.ctx, b.cancel = context.WithTimeout(b.parent, b.timeout)
		b.armed.Store(true)
	})
	return b.ctx
}

// current is the armed context, or the parent before arming.
func (b *budget) current() context.Context {
	if b.armed.Load() {
		return b.ctx
	}
	return b.parent
}

// stop releases the timer, if one was armed.
func (b *budget) stop() {
	if b.armed.Load() {
		b.cancel()
	}
}

func (b *budget) Deadline() (time.Time, bool) { return b.arm().Deadline() }
func (b *budget) Done() <-chan struct{}       { return b.arm().Done() }
func (b *budget) Err() error                  { return b.current().Err() }
func (b *budget) Value(key any) any           { return b.current().Value(key) }

// Hard safety ceilings that apply even to deliberately violating
// configurations (LookupLimit < 0 and friends): a real validator that
// ignores the RFC limits still exhausts some resource rather than
// recursing forever, and the self-including test policies (t18/t19)
// would otherwise be unbounded.
const (
	hardRecursionLimit = 48
	hardLookupLimit    = 2000
)

// limitError marks permerror results caused by exceeded limits.
type limitError struct{ what string }

func (e *limitError) Error() string { return "spf: " + e.what + " limit exceeded" }

// CheckHost evaluates the SPF policy of domain for a connection from
// ip with the given MAIL FROM sender ("user@domain"; pass
// "postmaster@"+helo to check the HELO identity) and HELO domain.
func (c *Checker) CheckHost(ctx context.Context, ip netip.Addr, domain, sender, helo string) *Outcome {
	st := &state{budget: budget{parent: ctx, timeout: c.Options.timeout()}}
	defer st.budget.stop()
	ctx, sp := trace.Start(&st.budget, "spf.check")
	if sp != nil {
		sp.SetAttr("domain", domain)
	}

	out := &Outcome{}
	env := &MacroEnv{
		Sender:   sender,
		Domain:   domain,
		IP:       ip,
		Helo:     helo,
		Receiver: c.Options.Receiver,
	}
	result, rec, err := c.checkHost(ctx, st, env, domain)
	// Prefetch goroutines hold ctx (and through it the span); they
	// must be fully joined before the span can end and recycle.
	st.prefetchWG.Wait()
	out.Result = result
	out.Err = err
	out.Lookups = st.lookups
	out.VoidLookups = st.voidLookups
	if result == Fail && rec != nil && rec.Exp != "" {
		out.Explanation = c.explanation(ctx, st, env, rec.Exp)
	}
	if sp != nil {
		sp.SetAttr("result", string(result))
		sp.SetInt("lookups", int64(st.lookups))
		sp.SetInt("void_lookups", int64(st.voidLookups))
		sp.SetError(err)
	}
	sp.End()
	return out
}

// mechSpanName maps a lookup-consuming mechanism kind to its span
// name — constants, so starting the span never builds a string.
func mechSpanName(k MechanismKind) string {
	switch k {
	case MechInclude:
		return "spf.mech.include"
	case MechA:
		return "spf.mech.a"
	case MechMX:
		return "spf.mech.mx"
	case MechPTR:
		return "spf.mech.ptr"
	case MechExists:
		return "spf.mech.exists"
	}
	return "spf.mech"
}

// checkHost is the recursive core. It returns the record evaluated at
// this level so the top level can process its exp= modifier.
func (c *Checker) checkHost(ctx context.Context, st *state, env *MacroEnv, domain string) (Result, *Record, error) {
	if err := ctx.Err(); err != nil {
		return TempError, nil, err
	}
	st.depth++
	defer func() { st.depth-- }()
	if st.depth > hardRecursionLimit || st.lookups > hardLookupLimit {
		return PermError, nil, &limitError{what: "hard evaluation"}
	}
	if domain == "" || strings.Count(strings.Trim(domain, "."), ".") < 1 {
		return None, nil, fmt.Errorf("spf: domain %q is not a multi-label FQDN", domain)
	}

	txts, err := c.Resolver.LookupTXT(ctx, domain)
	if err != nil {
		return TempError, nil, fmt.Errorf("spf: retrieving policy for %s: %w", domain, err)
	}
	var policy string
	policies := 0
	for _, txt := range txts {
		if IsSPF(txt) {
			if policies == 0 {
				policy = txt
			}
			policies++
		}
	}
	switch {
	case policies == 0:
		return None, nil, nil
	case policies > 1 && !c.Options.FollowMultipleRecords:
		return PermError, nil, fmt.Errorf("spf: %d SPF records published for %s", policies, domain)
	}

	rec, parseErr := Parse(policy)
	if parseErr != nil && !c.Options.IgnoreSyntaxErrors {
		return PermError, rec, parseErr
	}

	if c.Options.Prefetch {
		c.prefetch(ctx, st, env, rec, domain)
	}

	prevDomain := env.Domain
	env.Domain = domain
	defer func() { env.Domain = prevDomain }()

	for _, m := range rec.Mechanisms {
		needsLookup := m.Kind.RequiresLookup()
		if needsLookup {
			st.lookups++
			if st.lookups > c.Options.lookupLimit() {
				return PermError, rec, &limitError{what: "DNS lookup"}
			}
		}
		mctx, msp := ctx, (*trace.Span)(nil)
		var before int
		if needsLookup {
			before = st.lookups
			mctx, msp = trace.Start(ctx, mechSpanName(m.Kind))
		}
		match, result, err := c.evalMechanism(mctx, st, env, m, domain)
		if msp != nil {
			// The mechanism's own counted lookup plus whatever its
			// recursion consumed.
			msp.SetInt("lookups", int64(st.lookups-before+1))
			msp.SetError(err)
			msp.End()
		}
		if err != nil || result != "" {
			return result, rec, err
		}
		if match {
			return m.Qualifier.Result(), rec, nil
		}
	}

	if rec.Redirect != "" {
		st.lookups++
		if st.lookups > c.Options.lookupLimit() {
			return PermError, rec, &limitError{what: "DNS lookup"}
		}
		target, err := ExpandDomain(rec.Redirect, env)
		if err != nil {
			return PermError, rec, err
		}
		rctx, rsp := trace.Start(ctx, "spf.redirect")
		before := st.lookups
		if rsp != nil {
			rsp.SetAttr("target", target)
		}
		result, sub, err := c.checkHost(rctx, st, env, target)
		if rsp != nil {
			rsp.SetInt("lookups", int64(st.lookups-before+1))
			rsp.SetError(err)
			rsp.End()
		}
		if result == None {
			return PermError, rec, fmt.Errorf("spf: redirect target %s has no SPF record", target)
		}
		// The redirect target's exp= applies (RFC 7208 §6.1).
		return result, sub, err
	}
	return Neutral, rec, nil
}

// evalMechanism evaluates one mechanism. It returns match=true when
// the mechanism matches, or a non-empty result to short-circuit the
// whole evaluation (include recursion errors, limit violations).
func (c *Checker) evalMechanism(ctx context.Context, st *state, env *MacroEnv, m Mechanism, domain string) (bool, Result, error) {
	switch m.Kind {
	case MechAll:
		return true, "", nil

	case MechIP4, MechIP6:
		return matchIPLiteral(m, env.IP)

	case MechInclude:
		target, err := ExpandDomain(m.Domain, env)
		if err != nil {
			return false, PermError, err
		}
		result, _, err := c.checkHost(ctx, st, env, target)
		switch result {
		case Pass:
			return true, "", nil
		case Fail, SoftFail, Neutral:
			return false, "", nil
		case TempError:
			return false, TempError, err
		case None:
			return false, PermError, fmt.Errorf("spf: include target %s has no SPF record", target)
		default:
			return false, PermError, err
		}

	case MechA:
		target, err := ExpandDomain(m.Domain, env)
		if err != nil {
			return false, PermError, err
		}
		addrs, err := c.lookupAddrs(ctx, st, target, env.IP)
		if err != nil {
			return false, TempError, err
		}
		if verr := c.checkVoid(st, len(addrs)); verr != nil {
			return false, PermError, verr
		}
		return matchAddrs(addrs, env.IP, m), "", nil

	case MechMX:
		target, err := ExpandDomain(m.Domain, env)
		if err != nil {
			return false, PermError, err
		}
		return c.evalMX(ctx, st, env, m, target)

	case MechPTR:
		target, err := ExpandDomain(m.Domain, env)
		if err != nil {
			return false, PermError, err
		}
		return c.evalPTR(ctx, st, env, target)

	case MechExists:
		target, err := ExpandDomain(m.Domain, env)
		if err != nil {
			return false, PermError, err
		}
		// exists always queries A, regardless of connection family.
		addrs, err := c.Resolver.LookupA(ctx, target)
		if err != nil {
			return false, TempError, err
		}
		if verr := c.checkVoid(st, len(addrs)); verr != nil {
			return false, PermError, verr
		}
		return len(addrs) > 0, "", nil
	}
	return false, PermError, &SyntaxError{Term: string(m.Kind), Reason: "unknown mechanism"}
}

func (c *Checker) evalMX(ctx context.Context, st *state, env *MacroEnv, m Mechanism, target string) (bool, Result, error) {
	mxs, err := c.Resolver.LookupMX(ctx, target)
	if err != nil {
		return false, TempError, err
	}
	if verr := c.checkVoid(st, len(mxs)); verr != nil {
		return false, PermError, verr
	}
	if len(mxs) == 0 {
		if c.Options.MXFallbackA {
			// Violation: RFC 7208 §5.4 forbids the implicit-MX A
			// fallback during SPF evaluation. The lookup is issued
			// (observable at the authoritative server) but cannot
			// authorize the client.
			_, _ = c.lookupAddrs(ctx, st, target, env.IP)
		}
		return false, "", nil
	}
	limit := c.Options.mxAddressLimit()
	for i, mx := range mxs {
		if i >= limit {
			return false, PermError, &limitError{what: "MX address lookup"}
		}
		addrs, err := c.lookupAddrs(ctx, st, mx.Host, env.IP)
		if err != nil {
			return false, TempError, err
		}
		if verr := c.checkVoid(st, len(addrs)); verr != nil {
			return false, PermError, verr
		}
		if matchAddrs(addrs, env.IP, m) {
			return true, "", nil
		}
	}
	return false, "", nil
}

func (c *Checker) evalPTR(ctx context.Context, st *state, env *MacroEnv, target string) (bool, Result, error) {
	names, err := c.Resolver.LookupPTR(ctx, env.IP)
	if err != nil {
		// RFC 7208 §5.5: on PTR lookup error the mechanism simply does
		// not match.
		return false, "", nil
	}
	if verr := c.checkVoid(st, len(names)); verr != nil {
		return false, PermError, verr
	}
	if len(names) > DefaultPTRLimit {
		names = names[:DefaultPTRLimit]
	}
	validated := ""
	for _, name := range names {
		addrs, err := c.lookupAddrs(ctx, st, name, env.IP)
		if err != nil {
			continue
		}
		for _, a := range addrs {
			if a == env.IP {
				validated = name
				if isSubdomainFold(name, target) {
					env.Validated = name
					return true, "", nil
				}
			}
		}
	}
	if validated != "" {
		env.Validated = validated
	}
	return false, "", nil
}

// lookupAddrs resolves name in the address family of the connecting
// client: A for IPv4, AAAA for IPv6.
func (c *Checker) lookupAddrs(ctx context.Context, st *state, name string, ip netip.Addr) ([]netip.Addr, error) {
	if ip.Is4() || ip.Is4In6() {
		return c.Resolver.LookupA(ctx, name)
	}
	return c.Resolver.LookupAAAA(ctx, name)
}

// checkVoid counts a void lookup when n records were returned and
// enforces the void-lookup limit.
func (c *Checker) checkVoid(st *state, n int) error {
	if n > 0 {
		return nil
	}
	st.voidLookups++
	if st.voidLookups > c.Options.voidLimit() {
		return &limitError{what: "void lookup"}
	}
	return nil
}

// matchIPLiteral matches the client address against an ip4/ip6
// literal, including CIDR prefixes.
func matchIPLiteral(m Mechanism, ip netip.Addr) (bool, Result, error) {
	client := ip.Unmap()
	arg := m.IP
	if !strings.ContainsRune(arg, '/') {
		addr, err := netip.ParseAddr(arg)
		if err != nil {
			return false, PermError, &SyntaxError{Term: m.String(), Reason: "invalid address literal"}
		}
		if m.Kind == MechIP4 && !addr.Is4() || m.Kind == MechIP6 && !addr.Is6() {
			return false, PermError, &SyntaxError{Term: m.String(), Reason: "address family mismatch"}
		}
		return client == addr.Unmap(), "", nil
	}
	prefix, err := netip.ParsePrefix(arg)
	if err != nil {
		return false, PermError, &SyntaxError{Term: m.String(), Reason: "invalid CIDR literal"}
	}
	if m.Kind == MechIP4 && !prefix.Addr().Is4() || m.Kind == MechIP6 && !prefix.Addr().Is6() {
		return false, PermError, &SyntaxError{Term: m.String(), Reason: "address family mismatch"}
	}
	return prefix.Contains(client), "", nil
}

// matchAddrs matches the client address against a resolved set, with
// the mechanism's dual-CIDR prefixes applied.
func matchAddrs(addrs []netip.Addr, ip netip.Addr, m Mechanism) bool {
	client := ip.Unmap()
	for _, a := range addrs {
		a = a.Unmap()
		if client.Is4() != a.Is4() {
			continue
		}
		bits := -1
		if client.Is4() && m.Prefix4 >= 0 {
			bits = m.Prefix4
		} else if !client.Is4() && m.Prefix6 >= 0 {
			bits = m.Prefix6
		}
		if bits < 0 {
			if a == client {
				return true
			}
			continue
		}
		prefix, err := a.Prefix(bits)
		if err != nil {
			continue
		}
		if prefix.Contains(client) {
			return true
		}
	}
	return false
}

// isSubdomainFold reports whether child equals or is a subdomain of
// parent, case-insensitively.
func isSubdomainFold(child, parent string) bool {
	child = strings.ToLower(strings.TrimSuffix(child, "."))
	parent = strings.ToLower(strings.TrimSuffix(parent, "."))
	return child == parent || strings.HasSuffix(child, "."+parent)
}

// explanation retrieves and expands the exp= explanation string.
func (c *Checker) explanation(ctx context.Context, st *state, env *MacroEnv, spec string) string {
	target, err := ExpandDomain(spec, env)
	if err != nil {
		return ""
	}
	txts, err := c.Resolver.LookupTXT(ctx, target)
	if err != nil || len(txts) != 1 {
		return ""
	}
	expanded, err := ExpandMacros(txts[0], env, true)
	if err != nil {
		return ""
	}
	return expanded
}

// prefetch concurrently issues the DNS lookups implied by every
// mechanism of rec, emulating a parallel-lookup validator. Results are
// discarded; a caching resolver will serve the subsequent serial
// evaluation from cache, and the authoritative server observes the
// parallel query pattern.
func (c *Checker) prefetch(ctx context.Context, st *state, env *MacroEnv, rec *Record, domain string) {
	prefetchEnv := *env
	prefetchEnv.Domain = domain
	for _, m := range rec.Mechanisms {
		m := m
		var run func()
		switch m.Kind {
		case MechInclude:
			run = func() {
				if target, err := ExpandDomain(m.Domain, &prefetchEnv); err == nil {
					_, _ = c.Resolver.LookupTXT(ctx, target)
				}
			}
		case MechA:
			run = func() {
				if target, err := ExpandDomain(m.Domain, &prefetchEnv); err == nil {
					_, _ = c.lookupAddrs(ctx, st, target, prefetchEnv.IP)
				}
			}
		case MechMX:
			run = func() {
				if target, err := ExpandDomain(m.Domain, &prefetchEnv); err == nil {
					_, _ = c.Resolver.LookupMX(ctx, target)
				}
			}
		case MechExists:
			run = func() {
				if target, err := ExpandDomain(m.Domain, &prefetchEnv); err == nil {
					_, _ = c.Resolver.LookupA(ctx, target)
				}
			}
		default:
			continue
		}
		st.prefetchWG.Add(1)
		go func() {
			defer st.prefetchWG.Done()
			run()
		}()
	}
}

package spf

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// mockResolver is an in-memory Resolver with a query log.
type mockResolver struct {
	mu      sync.Mutex
	txt     map[string][]string
	a       map[string][]netip.Addr
	aaaa    map[string][]netip.Addr
	mx      map[string][]MXRecord
	ptr     map[string][]string
	failing map[string]error
	queries []string
}

func newMockResolver() *mockResolver {
	return &mockResolver{
		txt:     make(map[string][]string),
		a:       make(map[string][]netip.Addr),
		aaaa:    make(map[string][]netip.Addr),
		mx:      make(map[string][]MXRecord),
		ptr:     make(map[string][]string),
		failing: make(map[string]error),
	}
}

func (r *mockResolver) log(kind, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries = append(r.queries, kind+" "+strings.ToLower(strings.TrimSuffix(name, ".")))
	return r.failing[strings.ToLower(strings.TrimSuffix(name, "."))]
}

func (r *mockResolver) key(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

func (r *mockResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	if err := r.log("TXT", name); err != nil {
		return nil, err
	}
	return r.txt[r.key(name)], nil
}

func (r *mockResolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	if err := r.log("A", name); err != nil {
		return nil, err
	}
	return r.a[r.key(name)], nil
}

func (r *mockResolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	if err := r.log("AAAA", name); err != nil {
		return nil, err
	}
	return r.aaaa[r.key(name)], nil
}

func (r *mockResolver) LookupMX(ctx context.Context, name string) ([]MXRecord, error) {
	if err := r.log("MX", name); err != nil {
		return nil, err
	}
	return r.mx[r.key(name)], nil
}

func (r *mockResolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	if err := r.log("PTR", ip.String()); err != nil {
		return nil, err
	}
	return r.ptr[ip.String()], nil
}

func (r *mockResolver) queryLog() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.queries...)
}

func (r *mockResolver) countQueries(prefix string) int {
	n := 0
	for _, q := range r.queryLog() {
		if strings.HasPrefix(q, prefix) {
			n++
		}
	}
	return n
}

var (
	ip4Client = netip.MustParseAddr("192.0.2.1")
	ip6Client = netip.MustParseAddr("2001:db8::1")
)

func check(t *testing.T, r Resolver, opts Options, ip netip.Addr, domain string) *Outcome {
	t.Helper()
	c := &Checker{Resolver: r, Options: opts}
	return c.CheckHost(context.Background(), ip, domain,
		"sender@"+domain, "helo.example.net")
}

func TestCheckHostBasicResults(t *testing.T) {
	r := newMockResolver()
	r.txt["pass.example.com"] = []string{"v=spf1 ip4:192.0.2.1 -all"}
	r.txt["fail.example.com"] = []string{"v=spf1 ip4:198.51.100.1 -all"}
	r.txt["softfail.example.com"] = []string{"v=spf1 ~all"}
	r.txt["neutral.example.com"] = []string{"v=spf1 ?all"}
	r.txt["empty.example.com"] = []string{"unrelated txt record"}
	r.txt["defaultneutral.example.com"] = []string{"v=spf1 ip4:198.51.100.1"}

	cases := []struct {
		domain string
		want   Result
	}{
		{"pass.example.com", Pass},
		{"fail.example.com", Fail},
		{"softfail.example.com", SoftFail},
		{"neutral.example.com", Neutral},
		{"empty.example.com", None},
		{"nonexistent.example.com", None},
		{"defaultneutral.example.com", Neutral}, // no match, no redirect
	}
	for _, c := range cases {
		out := check(t, r, Options{}, ip4Client, c.domain)
		if out.Result != c.want {
			t.Errorf("CheckHost(%s) = %s (err=%v), want %s", c.domain, out.Result, out.Err, c.want)
		}
	}
}

func TestCheckHostNonFQDN(t *testing.T) {
	r := newMockResolver()
	out := check(t, r, Options{}, ip4Client, "localhost")
	if out.Result != None {
		t.Errorf("single-label domain: %s", out.Result)
	}
	if len(r.queryLog()) != 0 {
		t.Error("single-label domain still triggered DNS")
	}
}

func TestCheckHostAMechanism(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 a:mail.example.com -all"}
	r.a["mail.example.com"] = []netip.Addr{netip.MustParseAddr("192.0.2.1")}
	r.aaaa["mail.example.com"] = []netip.Addr{ip6Client}

	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("IPv4 a match: %s (%v)", out.Result, out.Err)
	}
	if out := check(t, r, Options{}, ip6Client, "example.com"); out.Result != Pass {
		t.Errorf("IPv6 a match: %s (%v)", out.Result, out.Err)
	}
	if out := check(t, r, Options{}, netip.MustParseAddr("203.0.113.9"), "example.com"); out.Result != Fail {
		t.Errorf("a non-match: %s", out.Result)
	}
}

func TestCheckHostSelfReferentialA(t *testing.T) {
	// "a" with no argument refers to the current domain.
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 a -all"}
	r.a["example.com"] = []netip.Addr{ip4Client}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("bare a: %s (%v)", out.Result, out.Err)
	}
}

func TestCheckHostACIDR(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 a:net.example.com/24 -all"}
	r.a["net.example.com"] = []netip.Addr{netip.MustParseAddr("192.0.2.200")}
	// 192.0.2.1 is inside 192.0.2.200/24.
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("a/24 match: %s (%v)", out.Result, out.Err)
	}
	if out := check(t, r, Options{}, netip.MustParseAddr("192.0.3.1"), "example.com"); out.Result != Fail {
		t.Errorf("a/24 non-match: %s", out.Result)
	}
}

func TestCheckHostMX(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 mx -all"}
	r.mx["example.com"] = []MXRecord{{Preference: 10, Host: "mx1.example.com"},
		{Preference: 20, Host: "mx2.example.com"}}
	r.a["mx1.example.com"] = []netip.Addr{netip.MustParseAddr("203.0.113.1")}
	r.a["mx2.example.com"] = []netip.Addr{ip4Client}

	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("mx match: %s (%v)", out.Result, out.Err)
	}
}

func TestCheckHostInclude(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 include:other.example.net -all"}
	r.txt["other.example.net"] = []string{"v=spf1 ip4:192.0.2.1 -all"}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("include pass: %s (%v)", out.Result, out.Err)
	}
	// Fail inside an include means "no match", not fail.
	if out := check(t, r, Options{}, netip.MustParseAddr("203.0.113.9"), "example.com"); out.Result != Fail {
		t.Errorf("include fail bubbles as overall -all fail: %s", out.Result)
	}
	// Include of a domain with no SPF record is permerror.
	r.txt["example.com"] = []string{"v=spf1 include:nospf.example.net -all"}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != PermError {
		t.Errorf("include none: %s", out.Result)
	}
}

func TestCheckHostRedirect(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 redirect=_spf.example.com"}
	r.txt["_spf.example.com"] = []string{"v=spf1 ip4:192.0.2.1 -all"}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("redirect pass: %s (%v)", out.Result, out.Err)
	}
	if out := check(t, r, Options{}, netip.MustParseAddr("203.0.113.9"), "example.com"); out.Result != Fail {
		t.Errorf("redirect fail: %s", out.Result)
	}
	// Redirect to a domain without SPF is permerror.
	r.txt["example.com"] = []string{"v=spf1 redirect=nospf.example.com"}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != PermError {
		t.Errorf("redirect none: %s", out.Result)
	}
	// Redirect is ignored when a mechanism matched.
	r.txt["example.com"] = []string{"v=spf1 ip4:192.0.2.1 redirect=nospf.example.com"}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("matched mechanism with redirect: %s", out.Result)
	}
}

func TestCheckHostExists(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 exists:%{ir}.sender.example.net -all"}
	r.a["1.2.0.192.sender.example.net"] = []netip.Addr{netip.MustParseAddr("127.0.0.2")}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("exists with macro: %s (%v)", out.Result, out.Err)
	}
	// exists always queries A, even for an IPv6 client.
	r2 := newMockResolver()
	r2.txt["example.com"] = []string{"v=spf1 exists:static.example.net ?all"}
	out := check(t, r2, Options{}, ip6Client, "example.com")
	if out.Result != Neutral {
		t.Errorf("exists void: %s", out.Result)
	}
	if r2.countQueries("A static.example.net") != 1 || r2.countQueries("AAAA") != 0 {
		t.Errorf("exists issued wrong queries: %v", r2.queryLog())
	}
}

func TestCheckHostPTR(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 ptr -all"}
	r.ptr[ip4Client.String()] = []string{"mail.example.com"}
	r.a["mail.example.com"] = []netip.Addr{ip4Client}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("ptr match: %s (%v)", out.Result, out.Err)
	}
	// PTR name outside the target domain must not match.
	r.ptr[ip4Client.String()] = []string{"mail.elsewhere.net"}
	r.a["mail.elsewhere.net"] = []netip.Addr{ip4Client}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Fail {
		t.Errorf("ptr non-match: %s", out.Result)
	}
}

func TestCheckHostIPLiterals(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 ip4:192.0.2.0/24 ip6:2001:db8::/32 -all"}
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Errorf("ip4 cidr: %s", out.Result)
	}
	if out := check(t, r, Options{}, ip6Client, "example.com"); out.Result != Pass {
		t.Errorf("ip6 cidr: %s", out.Result)
	}
	if out := check(t, r, Options{}, netip.MustParseAddr("198.51.100.1"), "example.com"); out.Result != Fail {
		t.Errorf("outside cidr: %s", out.Result)
	}
}

func TestCheckHostTempError(t *testing.T) {
	r := newMockResolver()
	r.failing["broken.example.com"] = errors.New("SERVFAIL")
	out := check(t, r, Options{}, ip4Client, "broken.example.com")
	if out.Result != TempError {
		t.Errorf("temp failure: %s", out.Result)
	}
	if out.Err == nil {
		t.Error("temperror without detail")
	}
}

// blockingResolver answers TXT for example.com with policy and blocks
// every other lookup until its context is done. A blocked lookup first
// holds at a gate that opens when want lookups have arrived, so that
// they all reach ctx.Done at once.
type blockingResolver struct {
	policy  string
	want    int32
	arrived atomic.Int32
	gate    chan struct{}
}

func newBlockingResolver(policy string, want int32) *blockingResolver {
	return &blockingResolver{policy: policy, want: want, gate: make(chan struct{})}
}

func (r *blockingResolver) block(ctx context.Context) error {
	if r.arrived.Add(1) == r.want {
		close(r.gate)
	}
	select {
	case <-r.gate:
	case <-time.After(5 * time.Second): // a miscounted want: slow, not hung
	}
	<-ctx.Done()
	return ctx.Err()
}

func (r *blockingResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	if name == "example.com" {
		return []string{r.policy}, nil
	}
	return nil, r.block(ctx)
}

func (r *blockingResolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	return nil, r.block(ctx)
}

func (r *blockingResolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	return nil, r.block(ctx)
}

func (r *blockingResolver) LookupMX(ctx context.Context, name string) ([]MXRecord, error) {
	return nil, r.block(ctx)
}

func (r *blockingResolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	return nil, r.block(ctx)
}

// TestCheckHostBudget pins that Options.Timeout bounds an evaluation
// whose lookups never return, that cancelling the caller's context
// ends it with the caller's error, and that concurrent prefetch
// lookups waiting on the budget at once still see it expire.
func TestCheckHostBudget(t *testing.T) {
	cases := []struct {
		name    string
		policy  string
		opts    Options
		waiters int32
		cancel  bool
		want    error
	}{
		{"timeout", "v=spf1 a:slow.example -all", Options{Timeout: 50 * time.Millisecond}, 1, false, context.DeadlineExceeded},
		{"parent cancelled", "v=spf1 a:slow.example -all", Options{Timeout: time.Minute}, 1, true, context.Canceled},
		// Four prefetch goroutines (a, mx, exists, include) and the
		// serial "a" lookup.
		{"prefetch", "v=spf1 a:a.example mx:mx.example exists:e.example include:i.example -all",
			Options{Timeout: 50 * time.Millisecond, Prefetch: true}, 5, false, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newBlockingResolver(tc.policy, tc.waiters)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				go func() {
					<-r.gate
					cancel()
				}()
			}
			c := &Checker{Resolver: r, Options: tc.opts}
			start := time.Now()
			out := c.CheckHost(ctx, ip4Client, "example.com", "user@example.com", "helo.example.net")
			elapsed := time.Since(start)
			if out.Result != TempError || !errors.Is(out.Err, tc.want) {
				t.Errorf("CheckHost = %s (%v), want temperror wrapping %v", out.Result, out.Err, tc.want)
			}
			if elapsed > 2*time.Second {
				t.Errorf("CheckHost took %v, want well under 2s", elapsed)
			}
			if got := r.arrived.Load(); got != tc.waiters {
				t.Errorf("%d lookups waited, want %d", got, tc.waiters)
			}
		})
	}
}

func TestCheckHostMultipleRecords(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{
		"v=spf1 a:one.example.com ?all",
		"v=spf1 a:two.example.com ?all",
	}
	// Compliant: permerror, no further lookups (paper §7.3: 77% of MTAs).
	out := check(t, r, Options{}, ip4Client, "example.com")
	if out.Result != PermError {
		t.Errorf("multiple records: %s", out.Result)
	}
	if r.countQueries("A ") != 0 {
		t.Errorf("compliant validator still resolved mechanisms: %v", r.queryLog())
	}
	// Violating: follow the first record (paper §7.3: 23% of MTAs).
	r2 := newMockResolver()
	r2.txt["example.com"] = r.txt["example.com"]
	r2.a["one.example.com"] = []netip.Addr{ip4Client}
	out = check(t, r2, Options{FollowMultipleRecords: true}, ip4Client, "example.com")
	if out.Result != Pass {
		t.Errorf("follow-first mode: %s (%v)", out.Result, out.Err)
	}
	if r2.countQueries("A two.example.com") != 0 {
		t.Error("follow-first mode evaluated both records")
	}
}

func TestCheckHostSyntaxErrorModes(t *testing.T) {
	// The paper's §7.3 syntax test: "ipv4" instead of "ip4".
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 ipv4:198.51.100.1 a:right.example.com -all"}
	out := check(t, r, Options{}, ip4Client, "example.com")
	if out.Result != PermError {
		t.Errorf("compliant on syntax error: %s", out.Result)
	}
	if r.countQueries("A right.example.com") != 0 {
		t.Error("compliant validator looked past the syntax error")
	}

	r2 := newMockResolver()
	r2.txt["example.com"] = r.txt["example.com"]
	r2.a["right.example.com"] = []netip.Addr{ip4Client}
	out = check(t, r2, Options{IgnoreSyntaxErrors: true}, ip4Client, "example.com")
	if out.Result != Pass {
		t.Errorf("tolerant on syntax error: %s (%v)", out.Result, out.Err)
	}
	if r2.countQueries("A right.example.com") != 1 {
		t.Error("tolerant validator did not continue past the error")
	}
}

// deepIncludePolicy installs a chain of n include levels under base
// and returns the top-level domain.
func deepIncludePolicy(r *mockResolver, base string, n int) string {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("l%d.%s", i, base)
		next := fmt.Sprintf("l%d.%s", i+1, base)
		r.txt[name] = []string{"v=spf1 include:" + next + " ?all"}
	}
	r.txt[fmt.Sprintf("l%d.%s", n, base)] = []string{"v=spf1 ?all"}
	return "l0." + base
}

func TestCheckHostLookupLimit(t *testing.T) {
	r := newMockResolver()
	top := deepIncludePolicy(r, "example.com", 15)
	out := check(t, r, Options{}, ip4Client, top)
	if out.Result != PermError {
		t.Errorf("15-deep include chain: %s", out.Result)
	}
	if out.Lookups != DefaultLookupLimit+1 {
		t.Errorf("lookups consumed: %d, want %d", out.Lookups, DefaultLookupLimit+1)
	}
	// TXT queries: top + 10 includes before the limit trips.
	if got := r.countQueries("TXT "); got != 11 {
		t.Errorf("TXT queries: %d, want 11", got)
	}

	// A violating validator walks the whole chain.
	r2 := newMockResolver()
	top = deepIncludePolicy(r2, "example.com", 15)
	out = check(t, r2, Options{LookupLimit: -1}, ip4Client, top)
	if out.Result != Neutral {
		t.Errorf("unlimited validator: %s (%v)", out.Result, out.Err)
	}
	if got := r2.countQueries("TXT "); got != 16 {
		t.Errorf("unlimited TXT queries: %d, want 16", got)
	}
}

func TestCheckHostVoidLookupLimit(t *testing.T) {
	// The paper's void test policy: five "a" mechanisms, none resolving.
	policy := "v=spf1 a:v1.example.com a:v2.example.com a:v3.example.com a:v4.example.com a:v5.example.com ?all"
	r := newMockResolver()
	r.txt["example.com"] = []string{policy}
	out := check(t, r, Options{}, ip4Client, "example.com")
	if out.Result != PermError {
		t.Errorf("compliant void handling: %s", out.Result)
	}
	if got := r.countQueries("A "); got != 3 {
		t.Errorf("compliant validator issued %d A queries, want 3 (limit 2 + the violating one)", got)
	}

	// 64% of observed MTAs looked up all five names.
	r2 := newMockResolver()
	r2.txt["example.com"] = []string{policy}
	out = check(t, r2, Options{VoidLookupLimit: -1}, ip4Client, "example.com")
	if out.Result != Neutral {
		t.Errorf("unlimited void handling: %s (%v)", out.Result, out.Err)
	}
	if got := r2.countQueries("A "); got != 5 {
		t.Errorf("void-violating validator issued %d A queries, want 5", got)
	}
}

func TestCheckHostMXAddressLimit(t *testing.T) {
	// The paper's MX-limit policy: one mx mechanism with 20 MX records.
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 mx:mxfarm.example.com ?all"}
	var mxs []MXRecord
	for i := 0; i < 20; i++ {
		host := fmt.Sprintf("mx%02d.example.com", i)
		mxs = append(mxs, MXRecord{Preference: uint16(i), Host: host})
		r.a[host] = []netip.Addr{netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", i+1))}
	}
	r.mx["mxfarm.example.com"] = mxs

	out := check(t, r, Options{}, ip4Client, "example.com")
	if out.Result != PermError {
		t.Errorf("compliant MX limit: %s", out.Result)
	}
	if got := r.countQueries("A mx"); got != DefaultMXAddressLimit {
		t.Errorf("compliant validator issued %d MX-host A queries, want %d", got, DefaultMXAddressLimit)
	}

	// 64% of observed MTAs queried all 20 MX hosts.
	r2 := newMockResolver()
	r2.txt["example.com"] = r.txt["example.com"]
	r2.mx["mxfarm.example.com"] = mxs
	for name, addrs := range r.a {
		r2.a[name] = addrs
	}
	out = check(t, r2, Options{MXAddressLimit: -1}, ip4Client, "example.com")
	if out.Result != Neutral {
		t.Errorf("unlimited MX: %s (%v)", out.Result, out.Err)
	}
	if got := r2.countQueries("A mx"); got != 20 {
		t.Errorf("violating validator issued %d MX-host A queries, want 20", got)
	}
}

func TestCheckHostMXFallbackA(t *testing.T) {
	// RFC 7208 forbids the implicit-MX A fallback; 14% of observed
	// MTAs do it anyway.
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 mx:nomx.example.com ?all"}
	out := check(t, r, Options{}, ip4Client, "example.com")
	if out.Result != Neutral {
		t.Errorf("compliant empty mx: %s (%v)", out.Result, out.Err)
	}
	if r.countQueries("A nomx.example.com") != 0 {
		t.Error("compliant validator issued the forbidden A fallback")
	}

	r2 := newMockResolver()
	r2.txt["example.com"] = r.txt["example.com"]
	r2.a["nomx.example.com"] = []netip.Addr{ip4Client}
	out = check(t, r2, Options{MXFallbackA: true, VoidLookupLimit: -1}, ip4Client, "example.com")
	if out.Result != Neutral {
		t.Errorf("fallback must not authorize: %s", out.Result)
	}
	if r2.countQueries("A nomx.example.com") != 1 {
		t.Error("fallback mode did not issue the A query")
	}
}

func TestCheckHostSerialVsParallel(t *testing.T) {
	// The §7.1 test policy shape: include chain before an "a"
	// mechanism. Serial validators resolve the chain before the A
	// lookup; prefetching validators issue the A lookup immediately.
	setup := func() *mockResolver {
		r := newMockResolver()
		r.txt["example.com"] = []string{"v=spf1 include:l1.example.com a:foo.example.com -all"}
		r.txt["l1.example.com"] = []string{"v=spf1 include:l2.example.com ?all"}
		r.txt["l2.example.com"] = []string{"v=spf1 include:l3.example.com ?all"}
		r.txt["l3.example.com"] = []string{"v=spf1 ?all"}
		r.a["foo.example.com"] = []netip.Addr{ip4Client}
		return r
	}
	indexOf := func(log []string, q string) int {
		for i, entry := range log {
			if entry == q {
				return i
			}
		}
		return -1
	}

	r := setup()
	if out := check(t, r, Options{}, ip4Client, "example.com"); out.Result != Pass {
		t.Fatalf("serial eval: %s (%v)", out.Result, out.Err)
	}
	log := r.queryLog()
	aIdx, l3Idx := indexOf(log, "A foo.example.com"), indexOf(log, "TXT l3.example.com")
	if aIdx < 0 || l3Idx < 0 || aIdx < l3Idx {
		t.Errorf("serial order violated: %v", log)
	}

	r = setup()
	if out := check(t, r, Options{Prefetch: true}, ip4Client, "example.com"); out.Result != Pass {
		t.Fatalf("parallel eval: %s (%v)", out.Result, out.Err)
	}
	if indexOf(r.queryLog(), "A foo.example.com") < 0 {
		t.Errorf("prefetch issued no A lookup: %v", r.queryLog())
	}
}

func TestCheckHostExplanation(t *testing.T) {
	r := newMockResolver()
	r.txt["example.com"] = []string{"v=spf1 -all exp=explain.example.com"}
	r.txt["explain.example.com"] = []string{"%{i} is not allowed to send for %{d}"}
	out := check(t, r, Options{}, ip4Client, "example.com")
	if out.Result != Fail {
		t.Fatalf("result %s", out.Result)
	}
	want := "192.0.2.1 is not allowed to send for example.com"
	if out.Explanation != want {
		t.Errorf("explanation %q, want %q", out.Explanation, want)
	}
}

func TestCheckHostHeloIdentity(t *testing.T) {
	// Checking the HELO identity uses postmaster@helo as sender.
	r := newMockResolver()
	r.txt["helo.example.net"] = []string{"v=spf1 exists:%{l}.%{d} -all"}
	r.a["postmaster.helo.example.net"] = []netip.Addr{netip.MustParseAddr("127.0.0.2")}
	c := &Checker{Resolver: r}
	out := c.CheckHost(context.Background(), ip4Client, "helo.example.net",
		"postmaster@helo.example.net", "helo.example.net")
	if out.Result != Pass {
		t.Errorf("HELO check: %s (%v)", out.Result, out.Err)
	}
}

func TestMatchAddrsProperty(t *testing.T) {
	// Property: an address always matches itself without a prefix, and
	// never matches an address of the other family.
	f := func(a, b [4]byte) bool {
		x := netip.AddrFrom4(a)
		m := Mechanism{Kind: MechA, Prefix4: -1, Prefix6: -1}
		if !matchAddrs([]netip.Addr{x}, x, m) {
			return false
		}
		var six [16]byte
		copy(six[:], a[:])
		y := netip.AddrFrom16(six)
		return !matchAddrs([]netip.Addr{y}, x, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchPrefixProperty(t *testing.T) {
	// Property: /0 matches everything in-family; /32 matches only the
	// exact address.
	f := func(a, b [4]byte) bool {
		x, y := netip.AddrFrom4(a), netip.AddrFrom4(b)
		all := Mechanism{Kind: MechA, Prefix4: 0, Prefix6: -1}
		exact := Mechanism{Kind: MechA, Prefix4: 32, Prefix6: -1}
		if !matchAddrs([]netip.Addr{y}, x, all) {
			return false
		}
		return matchAddrs([]netip.Addr{y}, x, exact) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

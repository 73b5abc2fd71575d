package resolver

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// staticHandler answers from fixed record sets and counts queries.
type staticHandler struct {
	mu      sync.Mutex
	records map[string][]dns.RR // key: "TYPE name"
	refuse  map[string]bool
	count   map[string]int
	// noSOA sends NXDOMAIN without the SOA that lets a resolver cache
	// it (RFC 2308 §5).
	noSOA bool
}

// negativeSOA is the SOA the handler's NXDOMAIN carries: its MINIMUM,
// 30 s, is the smaller of its two TTLs, so a negative answer lives 30 s.
var negativeSOA = dns.RR{
	Name: "example.com.", Type: dns.TypeSOA, Class: dns.ClassINET, TTL: 300,
	Data: &dns.SOA{MName: "ns1.example.com.", RName: "hostmaster.example.com.", Minimum: 30},
}

func newStaticHandler() *staticHandler {
	return &staticHandler{
		records: make(map[string][]dns.RR),
		refuse:  make(map[string]bool),
		count:   make(map[string]int),
	}
}

func (h *staticHandler) queries(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count[key]
}

func (h *staticHandler) add(name string, t dns.Type, data dns.RData) {
	key := t.String() + " " + dns.CanonicalName(name)
	h.records[key] = append(h.records[key], dns.RR{
		Name: dns.CanonicalName(name), Type: t, Class: dns.ClassINET, TTL: 300, Data: data,
	})
}

func (h *staticHandler) ServeDNS(w dns.ResponseWriter, r *dns.Request) {
	q := r.Msg.Question()
	key := q.Type.String() + " " + dns.CanonicalName(q.Name)
	h.mu.Lock()
	h.count[key]++
	h.mu.Unlock()
	resp := new(dns.Message).SetReply(r.Msg)
	resp.Authoritative = true
	if h.refuse[dns.CanonicalName(q.Name)] {
		resp.RCode = dns.RCodeRefused
	} else if rrs, ok := h.records[key]; ok {
		resp.Answers = rrs
	} else {
		resp.RCode = dns.RCodeNameError
		if !h.noSOA {
			resp.Authority = []dns.RR{negativeSOA}
		}
	}
	_ = w.WriteMsg(resp)
}

func startServer(t testing.TB, h dns.Handler) string {
	t.Helper()
	srv := &dns.Server{Addr: "127.0.0.1:0", Handler: h}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr.String()
}

func TestLookupTXT(t *testing.T) {
	h := newStaticHandler()
	h.add("example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 ", "-all"}})
	h.add("example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"other record"}})
	r := New(Config{Server: startServer(t, h)})
	txts, err := r.LookupTXT(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 2 || txts[0] != "v=spf1 -all" || txts[1] != "other record" {
		t.Errorf("LookupTXT = %v", txts)
	}
}

func TestLookupAddressesAndMX(t *testing.T) {
	h := newStaticHandler()
	h.add("mail.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	h.add("mail.example.com", dns.TypeAAAA, &dns.AAAA{Addr: netip.MustParseAddr("2001:db8::9")})
	h.add("example.com", dns.TypeMX, &dns.MX{Preference: 5, Host: "mail.example.com."})
	r := New(Config{Server: startServer(t, h)})
	ctx := context.Background()

	a, err := r.LookupA(ctx, "mail.example.com")
	if err != nil || len(a) != 1 || a[0].String() != "192.0.2.9" {
		t.Errorf("LookupA = %v, %v", a, err)
	}
	aaaa, err := r.LookupAAAA(ctx, "mail.example.com")
	if err != nil || len(aaaa) != 1 || aaaa[0].String() != "2001:db8::9" {
		t.Errorf("LookupAAAA = %v, %v", aaaa, err)
	}
	mx, err := r.LookupMX(ctx, "example.com")
	if err != nil || len(mx) != 1 || mx[0].Host != "mail.example.com." || mx[0].Preference != 5 {
		t.Errorf("LookupMX = %v, %v", mx, err)
	}
}

func TestLookupEmptyIsVoidNotError(t *testing.T) {
	h := newStaticHandler()
	r := New(Config{Server: startServer(t, h)})
	txts, err := r.LookupTXT(context.Background(), "missing.example.com")
	if err != nil {
		t.Errorf("NXDOMAIN should not be an error: %v", err)
	}
	if len(txts) != 0 {
		t.Errorf("NXDOMAIN yielded records: %v", txts)
	}
}

func TestLookupPTR(t *testing.T) {
	h := newStaticHandler()
	h.add("1.2.0.192.in-addr.arpa", dns.TypePTR, &dns.PTR{Target: "mail.example.com."})
	r := New(Config{Server: startServer(t, h)})
	names, err := r.LookupPTR(context.Background(), netip.MustParseAddr("192.0.2.1"))
	if err != nil || len(names) != 1 || names[0] != "mail.example.com." {
		t.Errorf("LookupPTR = %v, %v", names, err)
	}
}

func TestReverseName(t *testing.T) {
	if got := ReverseName(netip.MustParseAddr("192.0.2.1")); got != "1.2.0.192.in-addr.arpa." {
		t.Errorf("v4 reverse: %q", got)
	}
	got := ReverseName(netip.MustParseAddr("2001:db8::1"))
	want := "1.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.8.b.d.0.1.0.0.2.ip6.arpa."
	if got != want {
		t.Errorf("v6 reverse:\n got %q\nwant %q", got, want)
	}
	if got := ReverseName(netip.MustParseAddr("::ffff:192.0.2.1")); got != "1.2.0.192.in-addr.arpa." {
		t.Errorf("v4-mapped reverse: %q", got)
	}
}

func TestCNAMEChasing(t *testing.T) {
	h := newStaticHandler()
	// The TXT answer section contains a CNAME plus the target's record.
	key := "TXT alias.example.com."
	h.records[key] = []dns.RR{
		{Name: "alias.example.com.", Type: dns.TypeCNAME, Class: dns.ClassINET, TTL: 300,
			Data: &dns.CNAME{Target: "real.example.com."}},
		{Name: "real.example.com.", Type: dns.TypeTXT, Class: dns.ClassINET, TTL: 300,
			Data: &dns.TXT{Strings: []string{"v=spf1 -all"}}},
	}
	r := New(Config{Server: startServer(t, h)})
	txts, err := r.LookupTXT(context.Background(), "alias.example.com")
	if err != nil || len(txts) != 1 || txts[0] != "v=spf1 -all" {
		t.Errorf("CNAME chase = %v, %v", txts, err)
	}
}

func TestCaching(t *testing.T) {
	h := newStaticHandler()
	h.add("cached.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	r := New(Config{Server: startServer(t, h)})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := r.LookupA(ctx, "cached.example.com"); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.queries("A cached.example.com."); got != 1 {
		t.Errorf("server saw %d queries, want 1 (cached)", got)
	}
	if n := r.cache.len(); n != 1 {
		t.Errorf("cache has %d entries", n)
	}
}

func TestServerErrorIsError(t *testing.T) {
	h := newStaticHandler()
	h.refuse["refused.example.com."] = true
	r := New(Config{Server: startServer(t, h)})
	_, err := r.LookupTXT(context.Background(), "refused.example.com")
	if err == nil {
		t.Fatal("REFUSED should be an error")
	}
	se, ok := err.(*ServerError)
	if !ok || se.RCode != dns.RCodeRefused {
		t.Errorf("error %v", err)
	}
	if !strings.Contains(se.Error(), "REFUSED") {
		t.Errorf("error text %q", se.Error())
	}
}

func TestTransportPolicySelection(t *testing.T) {
	addr4 := "127.0.0.1:53"
	addr6 := "[::1]:53"
	cases := []struct {
		cfg     Config
		want    string
		wantErr bool
	}{
		{Config{Server: addr4, Transport: DualStack}, addr4, false},
		{Config{Server: addr4, Server6: addr6, Transport: IPv6Only}, addr6, false},
		{Config{Server: addr4, Transport: IPv6Only}, "", true},
		{Config{Server6: addr6, Transport: IPv4Only}, "", true},
		{Config{Server: addr6, Transport: IPv4Only}, "", true}, // v6 literal in Server
		{Config{Server: addr6, Transport: DualStack}, addr6, false},
		{Config{Transport: DualStack}, "", true},
	}
	for i, c := range cases {
		r := New(c.cfg)
		got, err := r.server()
		if c.wantErr != (err != nil) {
			t.Errorf("case %d: err=%v, wantErr=%v", i, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("case %d: server %q, want %q", i, got, c.want)
		}
	}
}

func TestIPv6OnlyNameRetry(t *testing.T) {
	// The v4 endpoint refuses; a dual-stack resolver retries the v6
	// endpoint and succeeds. An IPv4-only resolver fails.
	h4 := newStaticHandler()
	h4.refuse["v6only.example.com."] = true
	h6 := newStaticHandler()
	h6.add("v6only.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})

	addr4 := startServer(t, h4)
	srv6 := &dns.Server{Addr: "[::1]:0", Handler: h6}
	a6, err := srv6.Start()
	if err != nil {
		t.Skipf("IPv6 loopback unavailable: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv6.Shutdown(ctx)
	})

	dual := New(Config{Server: addr4, Server6: a6.String(), Transport: DualStack})
	txts, err := dual.LookupTXT(context.Background(), "v6only.example.com")
	if err != nil || len(txts) != 1 {
		t.Errorf("dual-stack retry: %v, %v", txts, err)
	}

	v4only := New(Config{Server: addr4, Server6: a6.String(), Transport: IPv4Only})
	if _, err := v4only.LookupTXT(context.Background(), "v6only.example.com"); err == nil {
		t.Error("IPv4-only resolver retrieved a v6-only name")
	}
}

func TestMinTTL(t *testing.T) {
	msg := &dns.Message{Answers: []dns.RR{
		{TTL: 300}, {TTL: 60}, {TTL: 3600},
	}}
	if got := minTTL(msg); got != 60*time.Second {
		t.Errorf("minTTL = %v", got)
	}
	if got := minTTL(&dns.Message{Answers: []dns.RR{{TTL: 0}}}); got != time.Second {
		t.Errorf("zero TTL clamp = %v", got)
	}
	// A negative answer lives min(SOA TTL, MINIMUM), clamped like an
	// answer TTL, and is not cached without an SOA (RFC 2308 §5).
	soa := func(ttl, minimum uint32) *dns.Message {
		return &dns.Message{Authority: []dns.RR{{Type: dns.TypeSOA, TTL: ttl, Data: &dns.SOA{Minimum: minimum}}}}
	}
	for _, c := range []struct {
		msg  *dns.Message
		want time.Duration
	}{
		{soa(60, 300), 60 * time.Second},
		{soa(300, 30), 30 * time.Second},
		{soa(0, 300), time.Second},
		{soa(7200, 86400), time.Hour},
		{&dns.Message{}, 0},
	} {
		if got := minTTL(c.msg); got != c.want {
			t.Errorf("negative TTL with authority %v = %v, want %v", c.msg.Authority, got, c.want)
		}
	}
}

// TestCacheLifetimeScaled counts wire exchanges across a wait at
// TimeScale 0.001, where one second of TTL lasts one wall-clock
// millisecond: a 60 s answer, an empty one (its SOA's MINIMUM, 30 s)
// and a TTL-0 one (clamped to 1 s) go back to the wire once their
// scaled TTL has passed. At TimeScale 0 (unscaled) the same 60 ms wait
// is a cache hit. A load-stalled host only lengthens a wait, so only
// the expired-after direction is asserted on the wall clock.
func TestCacheLifetimeScaled(t *testing.T) {
	cases := []struct {
		name  string
		ttl   int // the answer's TTL; -1 answers NXDOMAIN
		scale float64
		wait  time.Duration
		want  int // wire exchanges for two lookups
	}{
		{"60s answer at 0.001", 60, 0.001, 60 * time.Millisecond, 2},
		{"empty answer at 0.001", -1, 0.001, 30 * time.Millisecond, 2},
		{"TTL 0 at 0.001", 0, 0.001, time.Millisecond, 2},
		{"60s answer unscaled", 60, 0, 60 * time.Millisecond, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newStaticHandler()
			if c.ttl >= 0 {
				h.add("ttl.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})
				h.records["TXT ttl.example.com."][0].TTL = uint32(c.ttl)
			}
			r := New(Config{Server: startServer(t, h), TimeScale: c.scale})
			for i := range 2 {
				if i > 0 {
					time.Sleep(c.wait)
				}
				if _, err := r.LookupTXT(context.Background(), "ttl.example.com"); err != nil {
					t.Fatal(err)
				}
			}
			if got := h.queries("TXT ttl.example.com."); got != c.want {
				t.Errorf("two lookups %v apart sent %d exchanges, want %d", c.wait, got, c.want)
			}
		})
	}
}

func TestCachePressureRelief(t *testing.T) {
	h := newStaticHandler()
	for i := 0; i < 20; i++ {
		h.add(name(i), dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	}
	r := New(Config{Server: startServer(t, h)})
	r.cache = newCache(10)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := r.LookupA(ctx, name(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.cache.len() > 10 {
		t.Errorf("cache grew to %d entries, cap 10", r.cache.len())
	}
}

func name(i int) string {
	return string(rune('a'+i%26)) + "x.example.com"
}

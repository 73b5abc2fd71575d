package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
	"sendervalid/internal/spf"
)

// TestCacheBoundUnderConcurrentHammer proves the cache's capacity
// bound holds while many goroutines insert disjoint names concurrently
// (run under -race by `make test`): the cache may hold stale entries
// between accesses, but it can never exceed its capacity. A 64-entry
// cache lets 400 names overflow it.
func TestCacheBoundUnderConcurrentHammer(t *testing.T) {
	h := newStaticHandler()
	const names = 400
	for i := 0; i < names; i++ {
		h.add(fmt.Sprintf("h%03d.example.com", i), dns.TypeA,
			&dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	}
	const bound = 64
	r := New(Config{Server: startServer(t, h)})
	r.cache = newCache(bound)
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < names; i += 8 {
				if _, err := r.LookupA(ctx, fmt.Sprintf("h%03d.example.com", i)); err != nil {
					t.Error(err)
					return
				}
				if n := r.cache.len(); n > bound {
					t.Errorf("cache grew to %d entries, bound %d", n, bound)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := r.cache.len(); n > bound {
		t.Errorf("final cache size %d exceeds bound %d", n, bound)
	}
}

// store puts msg in c under key as a finished flight does: the
// caller joins the key as its leader, then finishes the flight with
// msg, live until expires.
func store(t *testing.T, c *cache, key cacheKey, msg *dns.Message, expires time.Time) {
	t.Helper()
	e, leader := c.join(key, time.Now())
	if !leader {
		t.Fatalf("store: %q already holds a live answer or a flight", key.name)
	}
	c.finish(key, e.call, msg, expires, nil)
}

// inflight returns how many of c's entries are flights.
func inflight(c *cache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, e := range c.entries {
		if e.call != nil {
			n++
		}
	}
	return n
}

// TestEvictExpiredFirst pins the capacity-time eviction policy: when
// the cache is full, expired entries are reclaimed before any live
// entry is dropped.
func TestEvictExpiredFirst(t *testing.T) {
	c := newCache(4)
	now := time.Now()
	mk := func(name string) cacheKey { return cacheKey{name: name, typ: dns.TypeA} }
	live1, live2 := mk("live1."), mk("live2.")
	dead1, dead2 := mk("dead1."), mk("dead2.")
	msg := &dns.Message{}
	store(t, c, live1, msg, now.Add(time.Hour))
	store(t, c, live2, msg, now.Add(time.Hour))
	store(t, c, dead1, msg, now.Add(-time.Second))
	store(t, c, dead2, msg, now.Add(-time.Second))

	// The cache is at capacity; the next insert must reclaim the two
	// expired entries and keep both live ones.
	fresh := mk("fresh.")
	store(t, c, fresh, msg, now.Add(time.Hour))
	for _, k := range []cacheKey{live1, live2, fresh} {
		if _, ok := c.get(k, now); !ok {
			t.Errorf("live entry %q evicted while expired entries existed", k.name)
		}
	}
	for _, k := range []cacheKey{dead1, dead2} {
		if _, ok := c.entries[k]; ok {
			t.Errorf("expired entry %q survived eviction", k.name)
		}
	}
}

// TestEvictSoonestExpiryWhenNoneExpired pins the fallback: with no
// expired entries, the entry closest to expiry goes first.
func TestEvictSoonestExpiryWhenNoneExpired(t *testing.T) {
	c := newCache(3)
	now := time.Now()
	msg := &dns.Message{}
	near := cacheKey{name: "near.", typ: dns.TypeA}
	store(t, c, cacheKey{name: "far1.", typ: dns.TypeA}, msg, now.Add(time.Hour))
	store(t, c, near, msg, now.Add(time.Minute))
	store(t, c, cacheKey{name: "far2.", typ: dns.TypeA}, msg, now.Add(time.Hour))

	store(t, c, cacheKey{name: "new.", typ: dns.TypeA}, msg, now.Add(time.Hour))
	if _, ok := c.get(near, now); ok {
		t.Error("soonest-expiring entry survived a full-cache insert")
	}
	if c.len() != 3 {
		t.Errorf("cache holds %d entries, capacity 3", c.len())
	}
}

// TestExpiredEntriesReapedBelowCapacity: a cache that never reaches
// its capacity — every per-MTA cache of a campaign — must still forget
// what its TTLs say it should. A thousand inserts that have all expired
// by the time of the next one leave a handful of entries, not a
// thousand waiting for a capacity the cache will never hit.
func TestExpiredEntriesReapedBelowCapacity(t *testing.T) {
	r := New(Config{Server: "192.0.2.1:53"})
	past := time.Now().Add(-time.Second)
	for i := 0; i < 1000; i++ {
		store(t, r.cache, cacheKey{name: fmt.Sprintf("e%04d.example.com.", i), typ: dns.TypeTXT}, &dns.Message{}, past)
	}
	live := cacheKey{name: "live.example.com.", typ: dns.TypeTXT}
	store(t, r.cache, live, &dns.Message{}, time.Now().Add(time.Hour))
	if got := r.cache.len(); got > minReap {
		t.Errorf("cache.len() = %d after 1000 expired inserts and one live one, want ≤ %d", got, minReap)
	}
	if _, ok := r.cache.get(live, time.Now()); !ok {
		t.Error("the live entry was reaped with the expired ones")
	}

	// Live entries are never reaped below capacity, however many sweeps
	// their growth triggers.
	for i := 0; i < 1000; i++ {
		store(t, r.cache, cacheKey{name: fmt.Sprintf("l%04d.example.com.", i), typ: dns.TypeTXT}, &dns.Message{}, time.Now().Add(time.Hour))
	}
	if got := r.cache.len(); got < 1001 {
		t.Errorf("cache.len() = %d after 1001 live inserts below capacity, want all of them", got)
	}
}

// TestFlightsAtCapacity: no reap or eviction drops a flight, and an
// insert never waits for room. A cache of two, with three misses on
// distinct keys in flight at once, holds all three flights; each
// caller gets its own answer, and once every flight has finished the
// cache holds at most two entries again.
func TestFlightsAtCapacity(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	h := &slowHandler{staticHandler: newStaticHandler(), delay: 200 * time.Millisecond}
	const n = 3
	name := func(i int) string { return fmt.Sprintf("f%d.example.com", i) }
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}) }
	for i := range n {
		h.add(name(i), dns.TypeA, &dns.A{Addr: addr(i)})
	}
	r := New(Config{Server: startServer(t, h)})
	r.cache = newCache(2)
	done := make(chan error, n)
	for i := range n {
		go func() {
			addrs, err := r.LookupA(context.Background(), name(i))
			if err == nil && (len(addrs) != 1 || addrs[0] != addr(i)) {
				err = fmt.Errorf("%s: got %v, want [%v]", name(i), addrs, addr(i))
			}
			done <- err
		}()
	}
	deadline := time.Now().Add(time.Second)
	for inflight(r.cache) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d flights in the cache, want all of them", inflight(r.cache), n)
		}
		time.Sleep(time.Millisecond)
	}
	for range n {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a miss into a cache full of flights never returned")
		}
	}
	if got := r.cache.len(); got > 2 {
		t.Errorf("cache.len() = %d once every flight finished, capacity 2", got)
	}
}

// TestExpiredEntryReasked: a miss that finds its own entry expired
// replaces it with its flight. The name costs one wire query, the
// cache keeps one entry for it, and the stale answer is never served,
// not even while the new flight runs.
func TestExpiredEntryReasked(t *testing.T) {
	h := &slowHandler{staticHandler: newStaticHandler(), delay: 200 * time.Millisecond}
	h.add("stale.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})
	r := New(Config{Server: startServer(t, h)})
	key := keyFor("stale.example.com", dns.TypeTXT)
	stale := &dns.Message{}
	store(t, r.cache, key, stale, time.Now().Add(-time.Second))
	before := r.cache.len()

	answers := make(chan *dns.Message, 2)
	ask := func() {
		msg, err := r.Exchange(context.Background(), "stale.example.com", dns.TypeTXT)
		if err != nil {
			t.Error(err)
		}
		answers <- msg
	}
	go ask()
	deadline := time.Now().Add(time.Second)
	for inflight(r.cache) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the miss started no flight")
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.cache.len(); got != before {
		t.Errorf("cache.len() = %d with the flight running, want %d", got, before)
	}
	if _, ok := r.cache.get(key, time.Now()); ok {
		t.Error("a hit while the flight that replaced the stale entry runs")
	}
	go ask()
	for range 2 {
		if msg := <-answers; msg == stale || msg == nil || len(msg.Answers) != 1 {
			t.Errorf("Exchange returned %v, want the fresh answer", msg)
		}
	}
	if got := h.queries("TXT stale.example.com."); got != 1 {
		t.Errorf("server saw %d queries, want 1", got)
	}
	if got := r.cache.len(); got != before {
		t.Errorf("cache.len() = %d after the re-ask, want %d", got, before)
	}
}

// TestCacheBoundIsExact pins that cacheEntries is the capacity, not
// an upper bound on it: a resolver's cache given exactly 4096 distinct
// live entries keeps every one, and the next insert evicts exactly one.
func TestCacheBoundIsExact(t *testing.T) {
	r := New(Config{Server: "192.0.2.1:53"})
	const n = cacheEntries
	name := func(i int) string { return fmt.Sprintf("e%04d.example.com.", i) }
	insert := func(i int) {
		store(t, r.cache, keyFor(name(i), dns.TypeTXT), &dns.Message{}, time.Now().Add(time.Hour))
	}
	for i := 0; i < n; i++ {
		insert(i)
	}
	if got := r.cache.len(); got != n {
		t.Errorf("cache.len() = %d after %d distinct live inserts, want %d", got, n, n)
	}
	// A cancelled context turns a miss into an immediate error instead
	// of a wire query; a hit never looks at it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < n; i++ {
		if _, err := r.Exchange(ctx, name(i), dns.TypeTXT); err != nil {
			t.Errorf("%s evicted below the configured bound", name(i))
		}
	}
	insert(n)
	if got := r.cache.len(); got != n {
		t.Errorf("cache.len() = %d after an insert at capacity, want %d", got, n)
	}
}

// TestCacheEvictionIsAmortised pins the cost of an insert into a full
// cache, as entries visited per insert: a cache that holds its whole
// capacity live — the NotifyEmail sender's, at scale — must not walk
// every entry to make room for each new one. It visits 8 per insert,
// amortised, at the resolver's capacity; a walk per insert visits 4096.
func TestCacheEvictionIsAmortised(t *testing.T) {
	c := newCache(cacheEntries)
	later := time.Now().Add(time.Hour)
	msg := &dns.Message{}
	for i := range c.capacity {
		store(t, c, cacheKey{name: fmt.Sprintf("fill%05d.example", i), typ: dns.TypeA}, msg, later.Add(time.Duration(i)*time.Millisecond))
	}
	c.visited = 0
	const inserts = 4096
	for i := range inserts {
		store(t, c, cacheKey{name: fmt.Sprintf("new%05d.example", i), typ: dns.TypeA}, msg, later.Add(time.Hour))
		if len(c.entries) != c.capacity {
			t.Fatalf("insert %d at capacity left %d entries, want %d", i, len(c.entries), c.capacity)
		}
	}
	if perInsert := float64(c.visited) / inserts; perInsert > 9 {
		t.Errorf("an insert at capacity visits %.1f entries, amortised; want ≤ 9", perInsert)
	}
	// The fill's entries went first, soonest expiry first.
	if _, ok := c.entries[cacheKey{name: "fill04095.example", typ: dns.TypeA}]; ok {
		t.Error("the latest-expiring fill entry outlived 4096 inserts of new keys")
	}
}

// TestExchangeHitPathAllocFree pins the zero-allocation cache-hit
// path: a warm Exchange performs no heap allocations (the read lock, and the map probe are all alloc-free),
// for the canonical spelling and for the one SPF evaluation passes —
// no trailing dot.
func TestExchangeHitPathAllocFree(t *testing.T) {
	h := newStaticHandler()
	h.add("hot.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	r := New(Config{Server: startServer(t, h)})
	ctx := context.Background()
	for _, name := range []string{"hot.example.com.", "hot.example.com"} {
		if _, err := r.Exchange(ctx, name, dns.TypeA); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := r.Exchange(ctx, name, dns.TypeA); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cache-hit Exchange(%q): %v allocs/op, want 0", name, allocs)
		}
	}
	if got := h.queries("A hot.example.com."); got != 1 {
		t.Errorf("server saw %d queries for two spellings of one name, want 1", got)
	}
}

// TestLookupHitAllocs pins the warm spf.Resolver methods to one
// allocation: the slice they return.
func TestLookupHitAllocs(t *testing.T) {
	h := newStaticHandler()
	h.add("hot.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	h.add("hot.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.10")})
	h.add("hot.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 a -all"}})
	r := New(Config{Server: startServer(t, h)})
	ctx := context.Background()
	const name = "hot.example.com"
	if a, err := r.LookupA(ctx, name); err != nil || len(a) != 2 {
		t.Fatalf("LookupA = %v, %v", a, err)
	}
	if txt, err := r.LookupTXT(ctx, name); err != nil || len(txt) != 1 {
		t.Fatalf("LookupTXT = %v, %v", txt, err)
	}
	for _, c := range []struct {
		what   string
		lookup func()
	}{
		{"LookupA", func() { _, _ = r.LookupA(ctx, name) }},
		{"LookupTXT", func() { _, _ = r.LookupTXT(ctx, name) }},
	} {
		if allocs := testing.AllocsPerRun(200, c.lookup); allocs > 1 {
			t.Errorf("warm %s: %v allocs/op, want ≤ 1 (the returned slice)", c.what, allocs)
		}
	}
}

// TestCheckHostWarmAllocs bounds what one SPF evaluation allocates on a
// warm resolver — the bulk re-validation steady state, where nothing
// new can be learned. The fixture spends two lookups (a, include) over
// three cached names. What is left is the evaluation's own state, the
// two parsed records and the slices the lookups return: 9 measured, 13
// while every evaluation armed its timeout context up front. The bound
// leaves one for a Go release to move it.
func TestCheckHostWarmAllocs(t *testing.T) {
	h := newStaticHandler()
	h.add("example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 a:mail.example.com include:_spf.example.net -all"}})
	h.add("mail.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	h.add("_spf.example.net", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 ip4:198.51.100.0/24 -all"}})
	c := &spf.Checker{Resolver: New(Config{Server: startServer(t, h)})}
	ctx := context.Background()
	ip := netip.MustParseAddr("203.0.113.5")
	check := func() *spf.Outcome {
		return c.CheckHost(ctx, ip, "example.com", "user@example.com", "mail.example.com")
	}
	if out := check(); out.Result != spf.Fail || out.Lookups != 2 {
		t.Fatalf("CheckHost = %s with %d lookups (%v), want fail with 2", out.Result, out.Lookups, out.Err)
	}
	allocs := testing.AllocsPerRun(200, func() { check() })
	t.Logf("warm CheckHost: %v allocs/op", allocs)
	if allocs > 10 {
		t.Errorf("warm CheckHost: %v allocs/op, want ≤ 10", allocs)
	}
}

// TestCacheKeyMatchesCanonicalName: two names share a cache key exactly
// when dns.CanonicalName makes them equal — case, one trailing dot, the
// root, and octets outside ASCII included.
func TestCacheKeyMatchesCanonicalName(t *testing.T) {
	alphabet := []string{"a", "A", "z", "Z", ".", "\xff", "\xc3\x89", "\xc3\xa9", "-"}
	gen := func(picks []uint8) string {
		var sb strings.Builder
		for _, p := range picks[:len(picks)%7] {
			sb.WriteString(alphabet[int(p)%len(alphabet)])
		}
		return sb.String()
	}
	f := func(pa, pb []uint8) bool {
		a, b := gen(pa), gen(pb)
		sameKey := keyFor(a, dns.TypeA) == keyFor(b, dns.TypeA)
		return sameKey == (dns.CanonicalName(a) == dns.CanonicalName(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	for _, c := range [][2]string{{"", "."}, {"A.b", "a.B."}, {"x..", "X.."}} {
		if keyFor(c[0], dns.TypeA) != keyFor(c[1], dns.TypeA) {
			t.Errorf("%q and %q are one name but have different keys", c[0], c[1])
		}
	}
	for _, c := range [][2]string{{"x.", "x.."}, {"\xff.x", "\xfe.x"}, {"\xc3\x89.x", "\xc3\xa9.x"}} {
		if keyFor(c[0], dns.TypeA) == keyFor(c[1], dns.TypeA) {
			t.Errorf("%q and %q are different names but share a key", c[0], c[1])
		}
	}
	if keyFor("x", dns.TypeA) == keyFor("x", dns.TypeTXT) {
		t.Error("two types share a key")
	}
}

// TestNegativeCaching verifies an empty result that carries an SOA is
// cached (for the SOA's negative TTL) instead of being re-asked, and
// one without an SOA reaches the wire every time (RFC 2308 §5).
func TestNegativeCaching(t *testing.T) {
	for _, c := range []struct {
		noSOA bool
		want  int
	}{{false, 1}, {true, 3}} {
		h := newStaticHandler()
		h.noSOA = c.noSOA
		r := New(Config{Server: startServer(t, h)})
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			if txts, err := r.LookupTXT(ctx, "missing.example.com"); err != nil || len(txts) != 0 {
				t.Fatalf("lookup %d: %v, %v", i, txts, err)
			}
		}
		if got := h.queries("TXT missing.example.com."); got != c.want {
			t.Errorf("no SOA %v: server saw %d queries for 3 lookups, want %d", c.noSOA, got, c.want)
		}
	}
}

// TestFailureCaching: a REFUSED or SERVFAIL answer is a resolution
// failure, cached for failureTTL scaled by TimeScale (RFC 9520). A
// name that fails asked twice costs one wire query; asked again after
// the failure's lifetime it costs two. (That a transport failure is
// not cached is TestLeaderErrorNotCached.)
func TestFailureCaching(t *testing.T) {
	ctx := context.Background()
	for _, rcode := range []dns.RCode{dns.RCodeRefused, dns.RCodeServerFailure} {
		var queries atomic.Int64
		r := fabricResolver(t, dns.HandlerFunc(func(w dns.ResponseWriter, req *dns.Request) {
			queries.Add(1)
			resp := new(dns.Message).SetReply(req.Msg)
			resp.RCode = rcode
			_ = w.WriteMsg(resp)
		}))
		r.cfg.TimeScale = 0.01 // a failure lives 50 ms
		ask := func() {
			t.Helper()
			_, err := r.LookupTXT(ctx, "failing.example.")
			var se *ServerError
			if !errors.As(err, &se) || se.RCode != rcode {
				t.Fatalf("%v: lookup returned %v, want a ServerError", rcode, err)
			}
		}
		ask()
		ask()
		if n := queries.Load(); n != 1 {
			t.Errorf("%v asked twice: %d wire queries, want 1", rcode, n)
		}
		time.Sleep(time.Duration(float64(failureTTL)*r.cfg.TimeScale) + 20*time.Millisecond)
		ask()
		if n := queries.Load(); n != 2 {
			t.Errorf("%v asked again after its lifetime: %d wire queries, want 2", rcode, n)
		}
	}
}

// fabricResolver returns a resolver whose upstream is h, served on a
// netsim fabric as the world's authoritative server is: an exchange
// crosses no socket and costs a few microseconds.
func fabricResolver(t *testing.T, h dns.Handler) *Resolver {
	t.Helper()
	fabric := netsim.NewFabric()
	server := netip.MustParseAddrPort("192.0.2.53:53")
	pc, err := fabric.ListenPacket(server)
	if err != nil {
		t.Fatal(err)
	}
	srv := &dns.Server{Handler: h}
	if err := srv.Serve(pc); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return New(Config{
		Server: server.String(),
		Dialer: fabric.BoundDialer(netip.MustParseAddr("203.0.113.25"), netip.Addr{}),
	})
}

// TestFabricMissAllocs pins what one resolver miss costs the process
// when it crosses the netsim fabric, as every MTA's resolver does in a
// probe campaign: the query packed and written, the server's read,
// answer and write, the reply read and unpacked, the flight and the
// cache insert. Every name is new, so every lookup misses. The
// exchange arms one deadline on its datagram client and makes no
// context of its own: 39 allocations and ≈2.75 KB on go1.24, amd64,
// against 50 and ≈4.1 KB with a timeout context and a timer per
// direction. Run by `make telemetry-alloc`.
func TestFabricMissAllocs(t *testing.T) {
	a := &dns.A{Addr: netip.MustParseAddr("192.0.2.9")}
	r := fabricResolver(t, dns.HandlerFunc(func(w dns.ResponseWriter, r *dns.Request) {
		q := r.Msg.Question()
		resp := new(dns.Message).SetReply(r.Msg)
		resp.Answers = []dns.RR{{Name: q.Name, Type: dns.TypeA, Class: dns.ClassINET, TTL: 300, Data: a}}
		_ = w.WriteMsg(resp)
	}))

	const runs = 500
	names := make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("m%06d.miss.example.", i)
	}
	ctx := context.Background()
	next := 0
	miss := func() {
		if _, err := r.Exchange(ctx, names[next], dns.TypeA); err != nil {
			t.Fatal(err)
		}
		next++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, miss)
	runtime.ReadMemStats(&after)
	perMiss := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("one resolver miss over the fabric: %.0f allocs, %d B", allocs, perMiss)
	if raceEnabled {
		return // the race detector's pools and shadow state move the figures
	}
	if allocs > 43 {
		t.Errorf("one resolver miss: %.0f allocs, want ≤ 43", allocs)
	}
	if perMiss > 3000 {
		t.Errorf("one resolver miss allocates %d B, want ≤ 3000", perMiss)
	}
}

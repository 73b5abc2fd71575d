package resolver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/leaktest"
)

// slowHandler answers like staticHandler after a fixed delay, so
// concurrent queries genuinely overlap in flight. The answer waits in
// WriteMsgAfter, so no socket reader sleeps and the overlap holds at
// any GOMAXPROCS.
type slowHandler struct {
	*staticHandler
	delay time.Duration
}

func (h *slowHandler) ServeDNS(w dns.ResponseWriter, r *dns.Request) {
	h.staticHandler.ServeDNS(delayedWriter{w, h.delay}, r)
}

// delayedWriter turns every WriteMsg into a WriteMsgAfter.
type delayedWriter struct {
	dns.ResponseWriter
	delay time.Duration
}

func (w delayedWriter) WriteMsg(m *dns.Message) error { return w.WriteMsgAfter(m, w.delay) }

// TestSingleflightDedup proves the dedup contract the bulk pipeline
// relies on: N concurrent identical lookups produce exactly one wire
// exchange.
func TestSingleflightDedup(t *testing.T) {
	// Registered before startServer so (LIFO cleanup order) the check
	// runs after the server's own shutdown cleanup.
	t.Cleanup(leaktest.Check(t))
	h := &slowHandler{staticHandler: newStaticHandler(), delay: 100 * time.Millisecond}
	h.add("dedup.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})
	r := New(Config{Server: startServer(t, h)})
	ctx := context.Background()

	const callers = 20
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txts, err := r.LookupTXT(ctx, "dedup.example.com")
			if err == nil && len(txts) != 1 {
				err = errors.New("wrong answer count")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := h.queries("TXT dedup.example.com."); got != 1 {
		t.Errorf("%d concurrent lookups produced %d wire exchanges, want exactly 1", callers, got)
	}
}

// TestSingleflightWaiterCancellation pins the cancellation semantics:
// a waiter whose context is cancelled returns promptly (well before
// the exchange completes), while the leader's exchange keeps running
// under the flight-owned context, completes, and populates the cache
// for later callers. Leak-checked: neither the abandoned waiter nor
// the finished leader may leave goroutines behind.
func TestSingleflightWaiterCancellation(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	h := &slowHandler{staticHandler: newStaticHandler(), delay: 400 * time.Millisecond}
	h.add("cancel.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})
	r := New(Config{Server: startServer(t, h)})

	// Leader starts the exchange.
	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.LookupTXT(context.Background(), "cancel.example.com")
		leaderDone <- err
	}()
	// Give the leader time to join first, then add a waiter with a
	// cancellable context.
	time.Sleep(50 * time.Millisecond)
	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := r.LookupTXT(wctx, "cancel.example.com")
		waiterDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	wcancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 200*time.Millisecond {
			t.Errorf("waiter took %v to observe cancellation", waited)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}

	// The leader is unaffected and completes the exchange.
	select {
	case err := <-leaderDone:
		if err != nil {
			t.Fatalf("leader failed after waiter cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader never completed")
	}

	// The completed exchange populated the cache: a later caller is
	// served without another wire exchange.
	if _, err := r.LookupTXT(context.Background(), "cancel.example.com"); err != nil {
		t.Fatal(err)
	}
	if got := h.queries("TXT cancel.example.com."); got != 1 {
		t.Errorf("server saw %d queries, want 1 (cache populated by leader)", got)
	}
}

// TestSingleflightOrphanedFlightStops verifies the flight context: if
// every caller abandons an in-flight exchange, the flight context is
// cancelled so the retry loop stops rather than running to exhaustion.
func TestSingleflightOrphanedFlightStops(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	h := &slowHandler{staticHandler: newStaticHandler(), delay: 300 * time.Millisecond}
	h.add("orphan.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})
	r := New(Config{Server: startServer(t, h)})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.LookupTXT(ctx, "orphan.example.com")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned caller returned %v, want context.Canceled", err)
	}
	// The orphaned flight must retire itself; a fresh call afterwards
	// starts a new flight and succeeds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := inflight(r.cache)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d flights still registered after abandonment", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := r.LookupTXT(context.Background(), "orphan.example.com"); err != nil {
		t.Fatalf("fresh lookup after orphaned flight: %v", err)
	}
}

// flakyHandler leaves every query unanswered while the flag is set,
// then serves the embedded static records once cleared. The flag is
// atomic so the test can flip it while the server is live.
type flakyHandler struct {
	*staticHandler
	silent atomic.Bool
}

func (h *flakyHandler) ServeDNS(w dns.ResponseWriter, r *dns.Request) {
	if h.silent.Load() {
		return
	}
	h.staticHandler.ServeDNS(w, r)
}

// TestLeaderErrorNotCached pins that a failed exchange is shared with
// the waiters already joined but, unless it is a resolution failure
// the cache keeps for failureTTL (REFUSED, SERVFAIL), never cached:
// after a timeout the next caller retries the wire and can succeed.
func TestLeaderErrorNotCached(t *testing.T) {
	h := &flakyHandler{staticHandler: newStaticHandler()}
	h.add("flaky.example.com", dns.TypeTXT, &dns.TXT{Strings: []string{"v=spf1 -all"}})
	h.silent.Store(true)
	r := New(Config{Server: startServer(t, h), Timeout: 20 * time.Millisecond})
	ctx := context.Background()
	if _, err := r.LookupTXT(ctx, "flaky.example.com"); err == nil {
		t.Fatal("expected a timeout")
	}
	// The server recovers; the error must not have been cached.
	h.silent.Store(false)
	txts, err := r.LookupTXT(ctx, "flaky.example.com")
	if err != nil || len(txts) != 1 {
		t.Fatalf("recovered lookup = %v, %v (leader error was cached?)", txts, err)
	}
}

// TestSingleflightOneQueryPerKey pins that a key costs one wire query
// however its callers' misses interleave with its flight's finish: a
// caller that misses just as the flight stores its answer finds that
// answer under the cache's write lock and starts no second flight.
// Each round releases callers together on a fresh key against an
// upstream on the fabric, which answers in microseconds. With the
// answers and the flights in two tables, 172–304 of these 4,000 keys
// cost two queries on two vCPUs (16–34 under -race).
func TestSingleflightOneQueryPerKey(t *testing.T) {
	h := newStaticHandler()
	r := fabricResolver(t, h)
	ctx := context.Background()
	const rounds, callers = 4000, 8
	name := func(i int) string { return fmt.Sprintf("k%04d.race.example", i) }
	for i := range rounds {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := r.LookupTXT(ctx, name(i)); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	twice := 0
	for i := range rounds {
		if n := h.queries("TXT " + name(i) + "."); n != 1 {
			if twice++; twice <= 3 {
				t.Errorf("%s: %d wire queries, want 1", name(i), n)
			}
		}
	}
	if twice > 0 {
		t.Errorf("%d of %d keys, each asked by %d callers at once, cost more than one wire query", twice, rounds, callers)
	}
}

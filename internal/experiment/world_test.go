package experiment

import (
	"runtime"
	"testing"

	"sendervalid/internal/dataset"
	"sendervalid/internal/leaktest"
)

// TestIdleFleetHoldsNoGoroutine pins what an idle MTA costs: a built
// world holds the authoritative DNS server's goroutines (its
// GOMAXPROCS UDP readers, a TCP accept loop, the query log's drain)
// and nothing per MTA, because the fabric hands each SMTP connection
// to its MTA's server on a goroutine the dial starts. A fleet that
// parked one accept loop per address would hold hundreds. Close then
// leaves nothing running.
func TestIdleFleetHoldsNoGoroutine(t *testing.T) {
	defer leaktest.Check(t)()
	pop := dataset.Generate(smallNotifySpec(300, 5))
	if len(pop.MTAs) < 200 {
		t.Fatalf("population has %d MTAs; the test needs at least 200", len(pop.MTAs))
	}
	before := runtime.NumGoroutine()
	w, err := BuildWorld(pop, WorldConfig{Seed: 5, Rates: NotifyRates(), EnableIPv6DNS: true})
	if err != nil {
		t.Fatal(err)
	}
	held := runtime.NumGoroutine() - before
	w.Close()
	if limit := 2*runtime.GOMAXPROCS(0) + 8; held > limit {
		t.Errorf("a built world of %d MTAs holds %d goroutines at rest; want ≤ %d, none per MTA", len(pop.MTAs), held, limit)
	}
	t.Logf("a built world of %d MTAs holds %d goroutines at rest", len(pop.MTAs), held)
}

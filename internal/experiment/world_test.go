package experiment

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sendervalid/internal/dataset"
	"sendervalid/internal/dns"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/probe"
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

// TestCacheExpiresOnWorldClock probes one (MTA, test) of a MAIL-time
// SPF validator twice, 300 ms apart, in a wall-clock world at
// TimeScale 0.001. 300 ms is 300 s of the world's time, past the test
// policy's 60 s TTL, so the MTA's resolver must ask again for the
// policy's base TXT record: the query log holds that query twice. A
// cache on wall-clock TTLs would serve the second evaluation.
func TestCacheExpiresOnWorldClock(t *testing.T) {
	pop := dataset.Generate(smallNotifySpec(40, 5))
	w, err := BuildWorld(pop, WorldConfig{Seed: 5, Rates: NotifyRates(), TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	client := &probe.Client{
		Dialer:     w.Fabric.BoundDialer(ProbeAddr4, ProbeAddr6),
		Suffix:     DefaultTestSuffix,
		HeloDomain: "probe.dns-lab.example",
		Timeout:    smtpTimeout,
	}
	const test = "t01"
	baseQueries := func(mta string) (n int) {
		for _, e := range w.Log.Entries() {
			if e.MTAID == mta && e.TestID == test && len(e.Rest) == 0 && e.Type == dns.TypeTXT {
				n++
			}
		}
		return n
	}
	probeOnce := func(info *dataset.MTAInfo) {
		if res := client.Probe(context.Background(), info.Addr4, info.ID, test); res.Err != nil {
			t.Fatalf("probe %s %s: %v", info.ID, test, res.Err)
		}
	}

	// The first MAIL-time SPF validator that evaluates the probe.
	var info *dataset.MTAInfo
	for _, m := range pop.MTAs {
		if p := w.MTAs[m.ID].Profile(); !p.ValidatesSPF || p.Phase != mtasim.AtMail || p.RejectProbe {
			continue
		}
		probeOnce(m)
		if baseQueries(m.ID) == 1 {
			info = m
			break
		}
	}
	if info == nil {
		t.Fatal("no MTA evaluated the probe at MAIL time")
	}
	time.Sleep(300 * time.Millisecond)
	probeOnce(info)
	if n := baseQueries(info.ID); n != 2 {
		t.Errorf("two evaluations 300 ms apart (300 s of the world's time) logged %s's base TXT query %d times; want 2", info.ID, n)
	}
}

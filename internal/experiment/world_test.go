package experiment

import (
	"context"
	"math"
	mrand "math/rand"
	"reflect"
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

// freshProfile is the fleet's profile draw as it was when every draw
// built its own source: the reference the reseeded generator must
// reproduce, MTA by MTA.
func freshProfile(cfg WorldConfig, info *dataset.MTAInfo, provider *dataset.Provider) (prof mtasim.Profile, drifted bool) {
	seed := info.ProfileSeed
	if cfg.ProfileDrift > 0 {
		driftRng := mrand.New(mrand.NewSource(info.ProfileSeed ^ cfg.Seed ^ 0x9e3779b9))
		if driftRng.Float64() < cfg.ProfileDrift {
			seed, drifted = info.ProfileSeed^cfg.Seed, true
		}
	}
	prof = TierRates(cfg.Rates, info.Tier).Sample(mrand.New(mrand.NewSource(seed)))
	if provider != nil {
		prof.ValidatesSPF = provider.SPF
		prof.ValidatesDKIM = provider.DKIM
		prof.ValidatesDMARC = provider.DMARC
		prof.EnforceDMARC = provider.DMARC
		prof.Phase = mtasim.AtData
		prof.PartialSPF = false
		prof.RejectProbe = false
		prof.AcceptAnyUser = true
		prof.WhitelistPostmaster = false
		prof.SPFOptions = spfCompliant(prof.SPFOptions)
	}
	prof.ValidUsers = append(prof.ValidUsers, "operator")
	return prof, drifted
}

// TestFleetDrawsEqualFreshSources holds the fleet's one reseeded
// generator to the draws of a fresh source per draw: every MTA's
// profile, with and without drift, equals freshProfile's, and every
// post-DATA SPF validator's delay is the one a fresh source at
// ProfileSeed*31+7 draws. Every other MTA's delay is zero.
func TestFleetDrawsEqualFreshSources(t *testing.T) {
	pop := dataset.Generate(smallNotifySpec(300, 7))
	providers := providerFlagsByMTA(pop)
	const postDataMax = 25 * time.Millisecond
	for _, drift := range []float64{0, 0.05} {
		cfg := WorldConfig{Seed: 7, Rates: NotifyRates(), ProfileDrift: drift}
		w, err := BuildWorld(pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		rng := mrand.New(mrand.NewSource(0))
		var drifted, postData int
		for _, info := range pop.MTAs {
			want, d := freshProfile(cfg, info, providers[info.ID])
			if d {
				drifted++
			}
			if got := w.MTAs[info.ID].Profile(); !reflect.DeepEqual(got, want) {
				t.Fatalf("drift %v: %s's profile is\n%+v\nwant the fresh source's\n%+v", drift, info.ID, got, want)
			}
			wantDelay := time.Duration(0)
			if want.ValidatesSPF && want.Phase == mtasim.PostData {
				postData++
				wantDelay = time.Duration(1 + mrand.New(mrand.NewSource(info.ProfileSeed*31+7)).Int63n(int64(postDataMax)))
			}
			if got := w.mtaConfig(rng, info, providers[info.ID], postDataMax).PostDataDelay; got != wantDelay {
				t.Fatalf("drift %v: %s's post-DATA delay is %v, want %v", drift, info.ID, got, wantDelay)
			}
		}
		if postData == 0 || (drift > 0) != (drifted > 0) {
			t.Fatalf("drift %v: %d of %d MTAs drifted and %d validate after DATA; the population does not exercise every draw", drift, drifted, len(pop.MTAs), postData)
		}
		t.Logf("drift %v: %d MTAs, %d drifted, %d post-DATA validators", drift, len(pop.MTAs), drifted, postData)
	}
}

// TestBuildWorldRejectsBadTimeScale: a scale no delay can be drawn
// from is an error, not a panic, and a positive scale that takes the
// post-DATA bound below 1 ns builds a world.
func TestBuildWorldRejectsBadTimeScale(t *testing.T) {
	pop := dataset.Generate(smallNotifySpec(20, 5))
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if w, err := BuildWorld(pop, WorldConfig{Seed: 5, Rates: NotifyRates(), TimeScale: scale}); err == nil {
			w.Close()
			t.Errorf("BuildWorld at TimeScale %v built a world; want an error", scale)
		}
	}
	w, err := BuildWorld(pop, WorldConfig{Seed: 5, Rates: NotifyRates(), TimeScale: 1e-12})
	if err != nil {
		t.Fatalf("BuildWorld at TimeScale 1e-12: %v", err)
	}
	w.Close()
}

// TestBuildWorldAlloc pins what building a world allocates per MTA.
// A fresh math/rand source costs 4.9 KB, so a world that built one or
// two per MTA (≈14.4 KB per MTA) fails; one reseeded generator for the
// fleet leaves ≈3.6 KB.
func TestBuildWorldAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state moves the figures")
	}
	pop := dataset.Generate(smallNotifySpec(1000, 1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := BuildWorld(pop, WorldConfig{Seed: 1, Rates: NotifyRates()})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	perMTA := (after.TotalAlloc - before.TotalAlloc) / uint64(len(pop.MTAs))
	t.Logf("BuildWorld over %d MTAs: %d B per MTA, %d objects", len(pop.MTAs), perMTA, after.Mallocs-before.Mallocs)
	if perMTA > 6<<10 {
		t.Errorf("BuildWorld allocates %d B per MTA; want ≤ %d (no math/rand source per MTA)", perMTA, 6<<10)
	}
}

package experiment

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"sendervalid/internal/dataset"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/mtasim"
)

// oneDomainWorld builds a world of a single recipient domain whose one
// MTA runs exactly the given profile (BuildWorld samples profiles, so
// the sampled MTA is swapped for a hand-made one at the same address).
func oneDomainWorld(t *testing.T, profile mtasim.Profile) (*World, *mtasim.MTA) {
	t.Helper()
	info := &dataset.MTAInfo{
		ID: "m000001", Hostname: "mx.solo.example",
		Addr4: netip.MustParseAddr("198.51.100.77"),
	}
	pop := &dataset.Population{
		Name:    "solo",
		Domains: []*dataset.Domain{{Name: "solo.example", ID: "d000001", TLD: "example", MTAs: []*dataset.MTAInfo{info}}},
		MTAs:    []*dataset.MTAInfo{info},
	}
	w, err := BuildWorld(pop, WorldConfig{Seed: 5, Rates: NotifyRates(), TimeScale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	w.MTAs[info.ID].Close()
	profile.AcceptAnyUser = true
	mta := mtasim.New(mtasim.Config{
		ID: info.ID, Hostname: info.Hostname, Addr4: info.Addr4,
		Profile: profile, Fabric: w.Fabric, DNSAddr: w.DNSAddr,
	})
	// A just-started server may release its listener only once its
	// Serve goroutine notices the Close: wait for the address.
	err = mta.Start()
	for deadline := time.Now().Add(2 * time.Second); err != nil && time.Now().Before(deadline); err = mta.Start() {
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	w.MTAs[info.ID] = mta
	return w, mta
}

// TestNotifyEmailRetriesGreylisting pins the queueing-sender behaviour
// at the runner: an MTA that tempfails its first two sessions gets the
// notification on the campaign's third round, and the delivery records
// all three. (Formerly probe.TestSenderRetriesTransientFailures, when
// the sender carried its own retry loop.)
func TestNotifyEmailRetriesGreylisting(t *testing.T) {
	w, mta := oneDomainWorld(t, mtasim.Profile{TempfailSessions: 2})
	run := RunNotifyEmail(context.Background(), w, 4)
	d := run.Deliveries["d000001"]
	if d == nil || !d.Delivered {
		t.Fatalf("greylisted delivery never succeeded: %+v", d)
	}
	if d.Attempts != 3 {
		t.Errorf("attempts %d, want 3", d.Attempts)
	}
	if st := mta.Stats(); st.Sessions != 3 || st.TempfailedSessions != 2 {
		t.Errorf("MTA saw %d sessions (%d tempfailed), want 3 (2)", st.Sessions, st.TempfailedSessions)
	}
}

// TestNotifyEmailBounceIsNotRetried: a 5xx is a bounce — one round,
// one session, never re-queued. (Formerly
// probe.TestSenderNoRetryOnPermanentFailure.)
func TestNotifyEmailBounceIsNotRetried(t *testing.T) {
	w, mta := oneDomainWorld(t, mtasim.Profile{RejectProbe: true, RejectText: "5.1.1 user unknown"})
	run := RunNotifyEmail(context.Background(), w, 4)
	d := run.Deliveries["d000001"]
	if d == nil || d.Delivered || d.Err == nil {
		t.Fatalf("bounced delivery: %+v", d)
	}
	if d.Attempts != 1 {
		t.Errorf("attempts %d, want 1", d.Attempts)
	}
	if st := mta.Stats(); st.Sessions != 1 {
		t.Errorf("5xx retried: MTA saw %d sessions", st.Sessions)
	}
}

// TestNotifyEmailCancellation cancels a delivery run midway: it must
// return promptly with the deliveries made so far and leave no
// goroutine behind.
func TestNotifyEmailCancellation(t *testing.T) {
	// The leak check brackets the world too: its servers start
	// asynchronously, so a snapshot taken after BuildWorld would miss
	// some of them.
	defer leaktest.Check(t)()
	w, err := BuildWorld(dataset.Generate(smallNotifySpec(200, 61)),
		WorldConfig{Seed: 61, Rates: NotifyRates(), TimeScale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first accepted message pulls the plug.
	go func() {
		for ctx.Err() == nil {
			for _, m := range w.MTAs {
				if m.Stats().MessagesAccepted > 0 {
					cancel()
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start := time.Now()
	run := RunNotifyEmail(ctx, w, 2)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v", elapsed)
	}
	if ctx.Err() == nil {
		t.Fatal("run finished before the cancel landed")
	}
	if n := len(run.Deliveries); n == 0 || n >= len(w.Population.Domains) {
		t.Errorf("cancelled run recorded %d of %d deliveries, want a strict subset", n, len(w.Population.Domains))
	}
}

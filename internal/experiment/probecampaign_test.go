package experiment

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/probe"
)

// campaignTests is a small test set keeping e2e campaign runs fast.
var campaignTests = []string{"t01", "t12"}

// TestProbeCampaignRetriesNetsimFailures injects transient connect
// failures through the fabric: briefly unreachable MTAs must be
// retried with backoff until they answer, a permanently dead MTA must
// exhaust its attempt budget and fail, and neither may be double-
// counted.
func TestProbeCampaignRetriesNetsimFailures(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(40, 21), NotifyRates())

	flaky := w.Population.MTAs[0]
	dead := w.Population.MTAs[1]
	w.Fabric.SetFaults(flaky.Addr4, &netsim.FaultProfile{DialFailure: 1})
	w.Fabric.SetFaults(dead.Addr4, &netsim.FaultProfile{DialFailure: 1})
	recover := time.AfterFunc(150*time.Millisecond, func() {
		w.Fabric.SetFaults(flaky.Addr4, nil)
	})
	defer recover.Stop()

	// Five attempts on the default 100 ms backoff: the fifth comes at
	// least 750 ms in, well after the flaky MTA recovers.
	pc := NewProbeCampaign(w, campaignTests, campaign.Config{
		Workers:     16,
		MaxAttempts: 5,
	}, nil)
	run, err := pc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := pc.Snapshot()
	if s.Retried == 0 {
		t.Error("transient connect failures were not retried")
	}
	// The flaky MTA recovered: its tasks must have completed.
	if got := len(run.Results[flaky.ID]); got != len(campaignTests) {
		t.Errorf("flaky MTA has %d results, want %d", got, len(campaignTests))
	}
	for _, r := range run.Results[flaky.ID] {
		// A measurement outcome (completed dialogue or 5xx policy
		// rejection) is success; a transport error means the retry
		// never reached the recovered MTA.
		if attemptErr(r.Err) != nil {
			t.Errorf("flaky MTA result still failing after recovery: %v", r.Err)
		}
	}
	// The dead MTA exhausted its budget and failed; everything else
	// completed.
	if s.Failed != len(campaignTests) {
		t.Errorf("failed %d tasks, want %d (the dead MTA's)", s.Failed, len(campaignTests))
	}
	if want := len(w.Population.MTAs) * len(campaignTests); s.Done != want-len(campaignTests) {
		t.Errorf("done %d, want %d", s.Done, want-len(campaignTests))
	}
}

// TestProbeCampaignTempfailGreylisting exercises 4xx SMTP injection
// via mtasim: a greylisting MTA tempfails its first sessions, and the
// campaign retries through to a completed probe. A 554-rejecting MTA
// is a terminal measurement outcome — recorded, never retried.
func TestProbeCampaignTempfailGreylisting(t *testing.T) {
	fabric := netsim.NewFabric()
	greyAddr := netip.MustParseAddr("203.0.113.201")
	rejectAddr := netip.MustParseAddr("203.0.113.202")

	grey := mtasim.New(mtasim.Config{
		ID: "grey", Hostname: "grey.mx.example", Addr4: greyAddr,
		Profile: mtasim.Profile{AcceptAnyUser: true, TempfailSessions: 2},
		Fabric:  fabric,
	})
	if err := grey.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(grey.Close)

	reject := mtasim.New(mtasim.Config{
		ID: "reject", Hostname: "reject.mx.example", Addr4: rejectAddr,
		Profile: mtasim.Profile{RejectProbe: true, RejectText: "550 listed on spam blacklist"},
		Fabric:  fabric,
	})
	if err := reject.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reject.Close)

	client := &probe.Client{
		Dialer: fabric, Suffix: DefaultTestSuffix,
		HeloDomain: "probe.example", RecipientDomain: "target.example",
		Timeout: 5 * time.Second,
	}
	addrs := map[string]netip.Addr{"grey": greyAddr, "reject": rejectAddr}
	var mu sync.Mutex
	results := make(map[campaign.Key]*probe.Result)
	c := campaign.New(campaign.Config{Workers: 4, MaxAttempts: 5}, func(ctx context.Context, task campaign.Task) error {
		res := client.Probe(ctx, addrs[task.MTA], task.MTA, task.Test)
		mu.Lock()
		results[task.Key()] = res
		mu.Unlock()
		return attemptErr(res.Err)
	})
	c.Add(campaign.Task{MTA: "grey", Test: "t12"}, campaign.Task{MTA: "reject", Test: "t12"})
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if st := grey.Stats(); st.TempfailedSessions != 2 || st.Sessions != 3 {
		t.Errorf("greylisting MTA saw %d sessions (%d tempfailed), want 3 (2)",
			st.Sessions, st.TempfailedSessions)
	}
	if res := results[campaign.Key{MTA: "grey", Test: "t12"}]; res.Stage != probe.StageDone {
		t.Errorf("greylisted probe did not complete after retries: %+v", res)
	}
	if st := reject.Stats(); st.Sessions != 1 {
		t.Errorf("554-rejecting MTA saw %d sessions: terminal outcomes must not be retried", st.Sessions)
	}
	s := c.Snapshot()
	if s.Done != 2 || s.Failed != 0 {
		t.Errorf("done %d failed %d, want 2/0 (a 554 rejection is a measurement outcome)", s.Done, s.Failed)
	}
	if s.Retried != 2 {
		t.Errorf("retried %d, want 2 (the greylisting tempfails)", s.Retried)
	}
}

// TestProbeCampaignResume cancels a journaled campaign mid-run and
// resumes it: the union of both runs covers every (MTA, test) pair
// exactly once.
func TestProbeCampaignResume(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(60, 23), NotifyRates())
	totalTasks := len(w.Population.MTAs) * len(campaignTests)
	var journal bytes.Buffer

	// The journal sees each transition as it happens: cancelling from
	// it once half the tasks are finished lands the cancellation
	// mid-run however fast the probes go.
	ctx, cancel := context.WithCancel(context.Background())
	pc1 := NewProbeCampaign(w, campaignTests, campaign.Config{
		Workers: 4, Journal: &cancelAfterFinished{w: &journal, left: totalTasks / 2, cancel: cancel},
	}, nil)
	_, err := pc1.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	finished1 := pc1.Snapshot().Completed()
	if finished1 == 0 || finished1 >= totalTasks {
		t.Fatalf("cancellation did not land mid-run: %d of %d", finished1, totalTasks)
	}

	replay, err := campaign.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(replay.Final); got != finished1 {
		t.Errorf("journal replay sees %d finished, campaign reported %d", got, finished1)
	}

	pc2 := NewProbeCampaign(w, campaignTests, campaign.Config{Workers: 4, Journal: &journal}, replay)
	if got := pc2.Snapshot().Total; got != totalTasks-finished1 {
		t.Errorf("resumed campaign enqueued %d tasks, want %d unfinished", got, totalTasks-finished1)
	}
	if _, err := pc2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	full, err := campaign.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(full.Final); got != totalTasks {
		t.Errorf("journal records %d finished tasks, want %d", got, totalTasks)
	}
	// Exactly once: finished counts across runs partition the task set.
	if finished1+pc2.Snapshot().Completed() != totalTasks {
		t.Errorf("runs overlap: %d + %d != %d", finished1, pc2.Snapshot().Completed(), totalTasks)
	}
}

// cancelAfterFinished passes journal lines through to w and calls
// cancel once left of them have recorded a finished task.
type cancelAfterFinished struct {
	w      io.Writer
	left   int
	cancel func()
}

func (c *cancelAfterFinished) Write(p []byte) (int, error) {
	finished := bytes.Count(p, []byte(`"ev":"done"`)) + bytes.Count(p, []byte(`"ev":"failed"`))
	if c.left > 0 && finished > 0 {
		if c.left -= finished; c.left <= 0 {
			c.cancel()
		}
	}
	return c.w.Write(p)
}

// TestProbeCampaignRateLimit verifies the politeness budget end to
// end: no MTA sees SMTP sessions faster than its bucket allows, while
// the fleet-wide rate exceeds any single MTA's.
func TestProbeCampaignRateLimit(t *testing.T) {
	fabric := netsim.NewFabric()
	const rate = 25.0
	mtas := make([]*mtasim.MTA, 5)
	addrs := make(map[string]netip.Addr, len(mtas))
	var grants struct {
		mu    chan struct{}
		times map[string][]time.Time
	}
	grants.mu = make(chan struct{}, 1)
	grants.mu <- struct{}{}
	grants.times = make(map[string][]time.Time)

	tasks := make([]campaign.Task, 0, len(mtas)*6)
	for i := range mtas {
		id := string(rune('a' + i))
		addr := netip.MustParseAddr("203.0.113.1" + string(rune('0'+i)))
		m := mtasim.New(mtasim.Config{
			ID: id, Hostname: id + ".mx.example", Addr4: addr,
			Profile: mtasim.Profile{AcceptAnyUser: true},
			Fabric:  fabric,
		})
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		mtas[i] = m
		addrs[id] = addr
		for j := 0; j < 6; j++ {
			tasks = append(tasks, campaign.Task{MTA: id, Test: testID(j + 1)})
		}
	}

	client := &probe.Client{
		Dialer: fabric, Suffix: DefaultTestSuffix,
		HeloDomain: "probe.example", RecipientDomain: "target.example",
		Timeout: 5 * time.Second,
	}
	c := campaign.New(campaign.Config{
		Workers: 16, ShardRate: rate,
	}, func(ctx context.Context, task campaign.Task) error {
		<-grants.mu
		grants.times[task.MTA] = append(grants.times[task.MTA], time.Now())
		grants.mu <- struct{}{}
		res := client.Probe(ctx, addrs[task.MTA], task.MTA, task.Test)
		return attemptErr(res.Err)
	})
	c.Add(tasks...)
	start := time.Now()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	minGap := time.Duration(0.8 / rate * float64(time.Second))
	for id, times := range grants.times {
		for i := 1; i < len(times); i++ {
			if gap := times[i].Sub(times[i-1]); gap < minGap {
				t.Errorf("MTA %s probed %v apart, budget requires ≥ %v", id, gap, minGap)
			}
		}
	}
	if aggregate := float64(len(tasks)) / elapsed.Seconds(); aggregate <= rate {
		t.Errorf("aggregate %.1f probes/s does not exceed the single-MTA budget %.1f/s", aggregate, rate)
	}
}

// TestQueryLogAttributesBySource runs a probe campaign over a small
// world and checks that the query log names each querying resolver by
// its MTA's own fabric address: every entry's Remote parses to a
// source address of the MTA its MTAID label names — Addr4, Addr6, or
// for a v4-only MTA's IPv6 queries Addr4 under 64:ff9b::/96 — arrives
// on the endpoint of its family, and is never loopback.
func TestQueryLogAttributesBySource(t *testing.T) {
	pop := dataset.Generate(smallNotifySpec(40, 5))
	w, err := BuildWorld(pop, WorldConfig{
		Seed: 5, Rates: NotifyRates(), TimeScale: 0.0005, EnableIPv6DNS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	pc := NewProbeCampaign(w, []string{"t01", "t03", "t10", "t12"}, campaign.Config{Workers: 16}, nil)
	if _, err := pc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.Quiesce()

	nat64 := netip.MustParseAddr("64:ff9b::").As16()
	sources := make(map[string][]netip.Addr, len(pop.MTAs))
	for _, m := range pop.MTAs {
		a := nat64
		v4 := m.Addr4.As4()
		copy(a[12:], v4[:])
		sources[m.ID] = []netip.Addr{m.Addr4, netip.AddrFrom16(a)}
		if m.Addr6.IsValid() {
			sources[m.ID] = append(sources[m.ID], m.Addr6)
		}
	}
	entries := w.Log.Entries()
	if len(entries) == 0 {
		t.Fatal("the campaign logged no queries")
	}
	var v6 int
	for _, e := range entries {
		remote, err := netip.ParseAddrPort(e.Remote)
		if err != nil {
			t.Fatalf("%s %s: Remote %q: %v", e.MTAID, e.Name, e.Remote, err)
		}
		from := remote.Addr()
		if from.IsLoopback() || !slices.Contains(sources[e.MTAID], from) {
			t.Errorf("%s %s came from %s, not from MTA %s (%v)", e.Type, e.Name, from, e.MTAID, sources[e.MTAID])
		}
		if e.OverIPv6 != from.Is6() {
			t.Errorf("%s %s from %s logged OverIPv6=%v", e.Type, e.Name, from, e.OverIPv6)
		}
		if e.OverIPv6 {
			v6++
		}
	}
	if v6 == 0 {
		t.Error("no query reached the IPv6 endpoint; t10 should send some there")
	}
	t.Logf("%d entries, %d over IPv6", len(entries), v6)
}

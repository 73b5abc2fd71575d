package experiment

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/probe"
)

// TestProbeSurvivesDeadDNS verifies the pipeline tolerates MTAs whose
// resolvers point at a dead upstream: probes complete (the MTA's SPF
// check fails with temperror internally) and the analysis simply
// observes no validation.
func TestProbeSurvivesDeadDNS(t *testing.T) {
	fabric := netsim.NewFabric()
	mta := mtasim.New(mtasim.Config{
		ID: "deaddns", Hostname: "mx.deaddns.example",
		Addr4:   netip.MustParseAddr("10.9.0.1"),
		Profile: mtasim.Profile{ValidatesSPF: true, Phase: mtasim.AtMail, AcceptAnyUser: true},
		Fabric:  fabric,
		// Nothing serves DNS on this fabric.
		DNSAddr:    "192.0.2.53:53",
		DNSTimeout: 200 * time.Millisecond,
		SPFTimeout: 500 * time.Millisecond,
	})
	if err := mta.Start(); err != nil {
		t.Fatal(err)
	}
	defer mta.Close()

	client := &probe.Client{
		Dialer: fabric, Suffix: DefaultTestSuffix,
		HeloDomain: "probe.example", RecipientDomain: "deaddns.example",
		Timeout: 5 * time.Second,
	}
	res := client.Probe(context.Background(), netip.MustParseAddr("10.9.0.1"), "deaddns", "t12")
	if res.Stage != probe.StageDone {
		t.Fatalf("probe against dead-DNS MTA: %+v", res)
	}
	if mta.Stats().SPFChecks != 1 {
		t.Errorf("SPF check not attempted: %+v", mta.Stats())
	}
}

// TestProbeRunToleratesUnreachableMTAs marks part of the fleet
// unreachable and verifies the run completes with the rest analyzed.
func TestProbeRunToleratesUnreachableMTAs(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(80, 31), NotifyRates())
	down := 0
	for _, info := range w.Population.MTAs {
		if down >= len(w.Population.MTAs)/3 {
			break
		}
		w.Fabric.SetFaults(info.Addr4, &netsim.FaultProfile{DialFailure: 1})
		down++
	}
	run, _ := NewProbeCampaign(w, []string{"t12"}, campaign.Config{Workers: 16}, nil).Run(context.Background())
	a := Probes(w.Population, w.Observations(), run, false)
	if a.ProbesCompleted.Tested != len(w.Population.MTAs) {
		t.Errorf("probes %d for %d MTAs", a.ProbesCompleted.Tested, len(w.Population.MTAs))
	}
	failed := 0
	for _, results := range run.Results {
		for _, r := range results {
			if r.Stage == probe.StageConnect && r.Err != nil {
				failed++
			}
		}
	}
	if failed < down {
		t.Errorf("only %d connect failures for %d downed MTAs", failed, down)
	}
	// Downed validators cannot be observed.
	if a.SPFMTAs.Observed > len(w.Population.MTAs)-down {
		t.Errorf("more validators (%d) than reachable MTAs (%d)",
			a.SPFMTAs.Observed, len(w.Population.MTAs)-down)
	}
}

// TestRunCancellation verifies both drivers stop promptly when the
// context is cancelled.
func TestRunCancellation(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(120, 37), NotifyRates())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, _ := NewProbeCampaign(w, []string{"t12"}, campaign.Config{Workers: 8}, nil).Run(ctx)
	if len(run.Results) >= len(w.Population.MTAs) {
		t.Errorf("cancelled probe run processed all %d MTAs", len(run.Results))
	}
	ne := RunNotifyEmail(ctx, w, 8)
	if len(ne.Deliveries) >= len(w.Population.Domains) {
		t.Errorf("cancelled delivery run processed all %d domains", len(ne.Deliveries))
	}
}

// TestWorldRebuildAfterClose verifies worlds can be built and torn
// down repeatedly over the same population (the NotifyEmail →
// NotifyMX sequencing in cmd/experiment).
func TestWorldRebuildAfterClose(t *testing.T) {
	pop := dataset.Generate(smallNotifySpec(40, 41))
	for i := 0; i < 3; i++ {
		w, err := BuildWorld(pop, WorldConfig{
			Seed: int64(41 + i), Rates: NotifyRates(), TimeScale: 0.0005,
		})
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		run, _ := NewProbeCampaign(w, []string{"t12"}, campaign.Config{Workers: 8}, nil).Run(context.Background())
		if len(run.Results) != len(pop.MTAs) {
			t.Errorf("build %d: %d results", i, len(run.Results))
		}
		w.Close()
	}
}

// TestTierRates verifies the Alexa tier adjustments raise validation
// combo weight without touching behaviour knobs.
func TestTierRates(t *testing.T) {
	base := NotifyRates()
	for _, tier := range []dataset.Tier{dataset.TierTop1M, dataset.TierTop1K} {
		r := TierRates(base, tier)
		baseAll := base.ComboAll / (base.ComboAll + base.ComboSPFDKIM + base.ComboNone +
			base.ComboSPFOnly + base.ComboDKIMOnly + base.ComboDMARCOnly + base.ComboSPFDMARC)
		tierAll := r.ComboAll / (r.ComboAll + r.ComboSPFDKIM + r.ComboNone +
			r.ComboSPFOnly + r.ComboDKIMOnly + r.ComboDMARCOnly + r.ComboSPFDMARC)
		if tierAll <= baseAll {
			t.Errorf("tier %v does not raise all-three share: %.3f vs %.3f", tier, tierAll, baseAll)
		}
		if r.RejectProbe != base.RejectProbe || r.Parallel != base.Parallel {
			t.Errorf("tier %v altered behaviour knobs", tier)
		}
	}
	if r := TierRates(base, dataset.TierGeneral); r != base {
		t.Error("general tier modified rates")
	}
}

// TestPaperScaleWorld exercises a larger slice of the fleet unless -short.
func TestPaperScaleWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("larger-scale world")
	}
	w := buildTestWorld(t, smallNotifySpec(1200, 43), NotifyRates())
	run, _ := NewProbeCampaign(w, []string{"t01", "t12"}, campaign.Config{Workers: 64}, nil).Run(context.Background())
	a := Probes(w.Population, w.Observations(), run, false)
	rate := fraction(a.SPFDomains)
	if rate < 0.40 || rate > 0.62 {
		t.Errorf("NotifyMX rate at scale: %.2f", rate)
	}
	sp := SerialParallel(w.Observations())
	if sp.Serial.Tested < 200 {
		t.Fatalf("only %d MTAs classifiable", sp.Serial.Tested)
	}
	if serial := fraction(sp.Serial); serial < 0.93 || serial > 1.0 {
		t.Errorf("serial fraction at scale: %.3f (paper 0.97)", serial)
	}
}

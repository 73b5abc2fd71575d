package experiment

import (
	"context"
	"strings"
	"testing"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/telemetry"
)

// smallNotifySpec shrinks the NotifyEmail spec for test runs.
func smallNotifySpec(n int, seed int64) dataset.Spec {
	spec := dataset.NotifyEmailSpec(seed).Scaled(n)
	spec.AlexaTop1K = n / 60 // enough Top-1K members for Table 7 at test scale
	return spec
}

func smallTwoWeekSpec(n int, seed int64) dataset.Spec {
	return dataset.TwoWeekMXSpec(seed).Scaled(n)
}

func buildTestWorld(t *testing.T, spec dataset.Spec, rates mtasim.Rates) *World {
	t.Helper()
	pop := dataset.Generate(spec)
	w, err := BuildWorld(pop, WorldConfig{Seed: spec.Seed, Rates: rates, TimeScale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestNotifyEmailExperiment(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(240, 11), NotifyRates())
	run := RunNotifyEmail(context.Background(), w, 24)
	a := NotifyEmail(w.Population, w.DomainObservations(), run)

	delivered, dkim, dmarc := 0, 0, 0
	for _, d := range run.Deliveries {
		if d.Delivered {
			delivered++
		}
	}
	for _, v := range a.Validation {
		if v.DKIM {
			dkim++
		}
		if v.DMARC {
			dmarc++
		}
	}
	domains := a.SPFDomains().Tested
	if delivered < domains*95/100 {
		t.Fatalf("only %d of %d deliveries succeeded", delivered, domains)
	}
	if spfRate := fraction(a.SPFDomains()); spfRate < 0.70 || spfRate > 0.95 {
		t.Errorf("SPF-validating domain rate %.2f, paper ≈ 0.85", spfRate)
	}
	dkimRate := float64(dkim) / float64(domains)
	if dkimRate < 0.65 || dkimRate > 0.95 {
		t.Errorf("DKIM rate %.2f, paper ≈ 0.82", dkimRate)
	}
	dmarcRate := float64(dmarc) / float64(domains)
	if dmarcRate < 0.35 || dmarcRate > 0.70 {
		t.Errorf("DMARC rate %.2f, paper ≈ 0.54", dmarcRate)
	}

	// Table 4 shape: all-three is the biggest combo; SPF+DKIM second
	// among validating combos.
	if a.Combos["YYY"] <= a.Combos["YYn"] {
		t.Errorf("combo ordering: YYY=%d YYn=%d", a.Combos["YYY"], a.Combos["YYn"])
	}
	if a.Combos["nnn"] == 0 {
		t.Error("no non-validating domains at all")
	}

	// Table 6: observed provider validation must equal the pinned
	// expectations.
	if len(a.Providers) != len(dataset.Providers) {
		t.Fatalf("provider rows: %d", len(a.Providers))
	}
	for _, row := range a.Providers {
		if row.SPF != row.Expected.SPF || row.DKIM != row.Expected.DKIM {
			t.Errorf("%s observed (%v,%v,%v), expected (%v,%v,%v)",
				row.Domain, row.SPF, row.DKIM, row.DMARC,
				row.Expected.SPF, row.Expected.DKIM, row.Expected.DMARC)
		}
	}

	// Table 7 monotonicity: top-1K ≥ top-1M ≥ all for SPF share.
	all, top1M, top1K := a.Alexa[0].share(rowSPF), a.Alexa[1].share(rowSPF), a.Alexa[2].share(rowSPF)
	if top1M.Tested == 0 || top1K.Tested == 0 {
		t.Fatal("no Alexa members in population")
	}
	allRate, top1MRate, top1KRate := fraction(all), fraction(top1M), fraction(top1K)
	if top1MRate < allRate-0.05 || top1KRate < top1MRate-0.10 {
		t.Errorf("Alexa SPF rates not increasing: all=%.2f 1M=%.2f 1K=%.2f",
			allRate, top1MRate, top1KRate)
	}

	// Figure 2: most validation happens before delivery completes.
	b := Bucketize(a.TimingSamples)
	if b.Total == 0 {
		t.Fatal("no timing samples")
	}
	// The upper bound leaves headroom for scheduler-load skew: under
	// -race the post-data validation window can slip past delivery for
	// a few extra domains (seen up to 0.96 on unmodified code).
	if frac := float64(b.LE30Neg+b.Neg15+b.Neg0) / float64(b.Total); frac < 0.70 || frac > 0.98 {
		t.Errorf("negative timing fraction %.2f, paper ≈ 0.83", frac)
	}

	// Rendering must mention the key identifiers.
	for _, out := range []string{
		RenderTable4(a), RenderTable6(a), RenderTable7(a), RenderFigure2(a),
	} {
		if len(out) == 0 {
			t.Error("empty rendering")
		}
	}
	if !strings.Contains(RenderTable6(a), "gmail.com") {
		t.Error("Table 6 rendering lacks providers")
	}
}

func TestNotifyMXExperiment(t *testing.T) {
	// Same population recipe as NotifyEmail, probed instead of mailed:
	// the §6.2 contrast.
	w := buildTestWorld(t, smallNotifySpec(240, 13), NotifyRates())
	run, _ := NewProbeCampaign(w, []string{"t12"}, campaign.Config{Workers: 24}, nil).Run(context.Background())
	a := Probes(w.Population, w.Observations(), run, false)

	if rate := fraction(a.SPFDomains); rate < 0.35 || rate > 0.65 {
		t.Errorf("NotifyMX SPF domain rate %.2f, paper ≈ 0.51", rate)
	}
	// The probe client is blacklisted: a large minority rejects it.
	rejected := a.SpamRejected + a.BlacklistRejected
	if rejected == 0 {
		t.Error("no spam/blacklist rejections observed")
	}
	if a.ProbesCompleted.Tested != len(w.Population.MTAs) {
		t.Errorf("probes: %d for %d MTAs", a.ProbesCompleted.Tested, len(w.Population.MTAs))
	}
	out := RenderTable5([]*ProbeAnalysis{a}, nil)
	if !strings.Contains(out, "NotifyEmail") && !strings.Contains(out, a.Name) {
		t.Errorf("Table 5 rendering:\n%s", out)
	}
}

func TestTwoWeekMXExperiment(t *testing.T) {
	w := buildTestWorld(t, smallTwoWeekSpec(300, 17), TwoWeekRates())
	run, _ := NewProbeCampaign(w, []string{"t12"}, campaign.Config{Workers: 24}, nil).Run(context.Background())
	a := Probes(w.Population, w.Observations(), run, true)

	if rate := fraction(a.SPFDomains); rate < 0.04 || rate > 0.30 {
		t.Errorf("TwoWeekMX SPF domain rate %.2f, paper ≈ 0.13", rate)
	}
	if len(a.Deciles) != 10 {
		t.Fatalf("deciles: %d", len(a.Deciles))
	}
	total := 0
	for _, d := range a.Deciles {
		total += d.SPFDomains.Tested
	}
	if total != a.SPFDomains.Tested-2 { // minus the local domains
		t.Errorf("decile coverage %d of %d", total, a.SPFDomains.Tested)
	}
	// Postmaster dominates recipients (paper: 69%).
	postmaster := 0
	for _, results := range run.Results {
		for _, r := range results {
			if strings.HasPrefix(r.Recipient, "postmaster@") {
				postmaster++
			}
		}
	}
	if postmaster == 0 {
		t.Error("postmaster never used")
	}
}

func TestBehaviorAnalyses(t *testing.T) {
	// A small fleet probed with the behaviour-revealing tests.
	w := buildTestWorld(t, smallNotifySpec(160, 19), NotifyRates())
	tests := []string{"t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t11"}
	NewProbeCampaign(w, tests, campaign.Config{Workers: 24}, nil).Run(context.Background())

	obs := w.Observations()
	sp := SerialParallel(obs)
	if sp.Serial.Tested == 0 {
		t.Fatal("no MTAs classifiable for serial/parallel")
	}
	if serialFrac := fraction(sp.Serial); serialFrac < 0.85 {
		t.Errorf("serial fraction %.2f, paper ≈ 0.97", serialFrac)
	}

	ll := LookupLimits(obs)
	if ll.RanAll().Tested == 0 {
		t.Fatal("no MTAs tested for lookup limits")
	}
	haltFrac, ranAllFrac := fraction(ll.HaltedBeforeTen()), fraction(ll.RanAll())
	if haltFrac < 0.40 || haltFrac > 0.85 {
		t.Errorf("halted-before-10 fraction %.2f, paper ≈ 0.61", haltFrac)
	}
	if ranAllFrac < 0.10 || ranAllFrac > 0.50 {
		t.Errorf("ran-all fraction %.2f, paper ≈ 0.28", ranAllFrac)
	}
	if cdf := ll.CDF(); len(cdf) == 0 || cdf[len(cdf)-1].Fraction != 1 {
		t.Errorf("CDF malformed: %v", cdf)
	}

	b := Behaviors(obs)
	if b.VoidExceeded.Tested == 0 || b.MXFallback.Tested == 0 || b.MultipleNone.Tested == 0 {
		t.Fatalf("behaviour analyses missing data: %+v", b)
	}
	// Planted 0.97 of the tested MTAs that evaluate the policy at all
	// (partial validators stop at the base record) and are not Table 6
	// providers' (those validate compliantly; a fleet this small is
	// provider-heavy). TestObservations scores the axis MTA by MTA.
	if f := fraction(b.VoidExceeded); f < 0.55 || f > 0.97 {
		t.Errorf("void-exceeded fraction %.2f, planted 0.97 of non-provider MTAs", f)
	}
	if f := fraction(b.MultipleNone); f < 0.55 || f > 0.95 {
		t.Errorf("multiple-none fraction %.2f, paper ≈ 0.77", f)
	}
	if b.MultipleBoth.Observed != 0 {
		t.Errorf("an MTA followed both policies (paper observed none): %+v", b.MultipleBoth)
	}
	if f := fraction(b.TCPRetried); f < 0.95 {
		t.Errorf("TCP retry fraction %.2f, paper ≈ 0.999", f)
	}
	if f := fraction(b.MXAllTwenty); f < 0.40 {
		t.Errorf("all-20-MX fraction %.2f, paper ≈ 0.64", f)
	}
	if b.HELOChecked.Observed > 0 && fraction(b.ContinuedToMail) != 1 {
		t.Errorf("HELO checkers must all continue to MAIL: %+v", b.ContinuedToMail)
	}

	out := RenderBehaviors(sp, b)
	for _, want := range []string{"serial", "void", "TCP", "MX"} {
		if !strings.Contains(out, want) {
			t.Errorf("behaviour rendering lacks %q:\n%s", want, out)
		}
	}
	_ = RenderFigure5(ll, 0.8)
}

func TestFingerprintPipeline(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(120, 29), NotifyRates())
	tests := []string{"t01", "t02", "t04", "t05", "t06", "t07", "t08", "t09", "t11"}
	NewProbeCampaign(w, tests, campaign.Config{Workers: 24}, nil).Run(context.Background())
	clusters, vectors := Fingerprints(w.Observations())
	if len(clusters) == 0 || len(vectors) == 0 {
		t.Fatal("no fingerprints extracted")
	}
	// Every vector belongs to exactly one cluster.
	covered := 0
	for _, c := range clusters {
		covered += len(c.MTAs)
	}
	if covered != len(vectors) {
		t.Errorf("clusters cover %d of %d vectors", covered, len(vectors))
	}
	// The dominant family should be the compliant serial validator:
	// y (serial), y (lookup-limit), n (full tree) prefix.
	if !strings.HasPrefix(clusters[0].Signature, "yyn") {
		t.Errorf("dominant family %q", clusters[0].Signature)
	}
	out := RenderFingerprints(clusters, vectors, 5)
	if !strings.Contains(out, "behavioural families") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestRenderStaticTables(t *testing.T) {
	ne := dataset.Generate(smallNotifySpec(300, 23))
	tw := dataset.Generate(smallTwoWeekSpec(300, 23))
	t1 := RenderTable1(ne, tw)
	if !strings.Contains(t1, "com") || !strings.Contains(t1, "total TLDs") {
		t.Errorf("Table 1:\n%s", t1)
	}
	t2 := RenderTable2([]Table2Row{Table2RowFor(ne), Table2RowFor(tw)})
	if !strings.Contains(t2, "NotifyEmail") || !strings.Contains(t2, "TwoWeekMX") {
		t.Errorf("Table 2:\n%s", t2)
	}
	t3 := RenderTable3(ne, tw)
	if !strings.Contains(t3, "AS15169") || !strings.Contains(t3, "Google") {
		t.Errorf("Table 3:\n%s", t3)
	}
}

func TestAllTestsList(t *testing.T) {
	all := AllTests()
	if len(all) != 39 || all[0] != "t01" || all[38] != "t39" {
		t.Errorf("AllTests: %v", all)
	}
}

func TestBucketize(t *testing.T) {
	b := Bucketize([]float64{-45, -20, -5, 5, 20, 45})
	if b.LE30Neg != 1 || b.Neg15 != 1 || b.Neg0 != 1 ||
		b.Pos15 != 1 || b.Pos30 != 1 || b.GE30 != 1 {
		t.Errorf("buckets %+v", b)
	}
	if b.Total != 6 {
		t.Errorf("Total = %d, want 6", b.Total)
	}
}

func TestCrossExperimentConsistency(t *testing.T) {
	// The §6.2 contrast: the same population mailed and probed.
	pop := dataset.Generate(smallNotifySpec(300, 47))
	neWorld, err := BuildWorld(pop, WorldConfig{
		Seed: 47, Rates: NotifyRates(), TimeScale: 0.0005,
	})
	if err != nil {
		t.Fatal(err)
	}
	neRun := RunNotifyEmail(context.Background(), neWorld, 24)
	ne := NotifyEmail(neWorld.Population, neWorld.DomainObservations(), neRun)
	neWorld.Close()

	probeWorld, err := BuildWorld(pop, WorldConfig{
		Seed: 53, Rates: NotifyRates(), TimeScale: 0.0005,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probeWorld.Close()
	probeRun, _ := NewProbeCampaign(probeWorld, []string{"t12"}, campaign.Config{Workers: 24}, nil).Run(context.Background())
	probes := Probes(probeWorld.Population, probeWorld.Observations(), probeRun, false)

	c := Compare(pop, ne, probes)
	inconsistent := c.InconsistentShare()
	if inconsistent.Tested != 300 {
		t.Fatalf("common domains %d", inconsistent.Tested)
	}
	if inconsistent.Observed == 0 {
		t.Fatal("no inconsistencies observed — the §6.2 contrast vanished")
	}
	// The dominant inconsistency is mail-validated-but-probe-silent
	// (paper: 95% of inconsistencies).
	if f := fraction(c.EmailOnlyShare()); f < 0.75 {
		t.Errorf("email-only fraction %.2f, paper ≈ 0.95", f)
	}
	// Re-observation rate near the paper's 65%.
	if f := fraction(c.ReobservedShare()); f < 0.45 || f > 0.85 {
		t.Errorf("re-observed fraction %.2f, paper ≈ 0.65", f)
	}
	out := RenderConsistency(c)
	if !strings.Contains(out, "re-observed") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestFullCatalogProbeRun(t *testing.T) {
	// Drive all 39 test policies through the complete probe pipeline
	// against a small fleet: every policy must be servable end to end
	// without stalling a probe or crashing an MTA.
	w := buildTestWorld(t, smallNotifySpec(60, 59), NotifyRates())
	run, _ := NewProbeCampaign(w, AllTests(), campaign.Config{Workers: 16}, nil).Run(context.Background())
	if got := len(run.Results); got != len(w.Population.MTAs) {
		t.Fatalf("results for %d of %d MTAs", got, len(w.Population.MTAs))
	}
	probesPerMTA := 0
	for _, results := range run.Results {
		probesPerMTA = len(results)
		break
	}
	if probesPerMTA != 39 {
		t.Errorf("probes per MTA: %d", probesPerMTA)
	}
	// Validating MTAs must have touched the extended policies too.
	queried := make(map[string]bool)
	w.Log.View(func(entries []dnsserver.LogEntry) {
		for _, e := range entries {
			queried[e.TestID] = true
		}
	})
	for _, id := range []string{"t13", "t16", "t27", "t37", "t39"} {
		if !queried[id] {
			t.Errorf("no queries observed for %s", id)
		}
	}
	// The catalog-wide run still yields a sane Table 5 signal.
	a := Probes(w.Population, w.Observations(), run, false)
	if a.SPFMTAs.Observed == 0 || a.SPFMTAs.Observed > a.SPFMTAs.Tested {
		t.Errorf("SPF MTAs %d of %d", a.SPFMTAs.Observed, a.SPFMTAs.Tested)
	}
}

// TestFleetMetricsEqualPerMTAStats pins the fleet accounting: each of
// the nine mtasim_* series a registry serves equals the sum of that
// field over every MTA's own Stats.
func TestFleetMetricsEqualPerMTAStats(t *testing.T) {
	spec := smallNotifySpec(60, 23)
	w, err := BuildWorld(dataset.Generate(spec), WorldConfig{
		Seed:         spec.Seed,
		Rates:        NotifyRates(),
		TimeScale:    0.0005,
		FleetMetrics: &mtasim.Metrics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	reg := telemetry.NewRegistry()
	w.RegisterMetrics(reg)

	NewProbeCampaign(w, []string{"t01", "t03", "t12"}, campaign.Config{Workers: 16}, nil).Run(context.Background())

	fields := []struct {
		name string
		get  func(mtasim.Stats) int
	}{
		{"mtasim_sessions_total", func(s mtasim.Stats) int { return s.Sessions }},
		{"mtasim_sessions_rejected_total", func(s mtasim.Stats) int { return s.RejectedSessions }},
		{"mtasim_sessions_tempfailed_total", func(s mtasim.Stats) int { return s.TempfailedSessions }},
		{"mtasim_spf_checks_total", func(s mtasim.Stats) int { return s.SPFChecks }},
		{"mtasim_helo_checks_total", func(s mtasim.Stats) int { return s.HELOChecks }},
		{"mtasim_dkim_checks_total", func(s mtasim.Stats) int { return s.DKIMChecks }},
		{"mtasim_dmarc_checks_total", func(s mtasim.Stats) int { return s.DMARCChecks }},
		{"mtasim_messages_accepted_total", func(s mtasim.Stats) int { return s.MessagesAccepted }},
		{"mtasim_messages_rejected_total", func(s mtasim.Stats) int { return s.MessagesRejected }},
	}
	want := make(map[string]int, len(fields))
	for _, m := range w.MTAs {
		m.Wait() // post-data validators count after the probe returns
		st := m.Stats()
		for _, f := range fields {
			want[f.name] += f.get(st)
		}
	}
	if want["mtasim_sessions_total"] == 0 || want["mtasim_spf_checks_total"] == 0 {
		t.Fatalf("vacuous run: %v", want)
	}
	for _, fam := range reg.Snapshot() {
		n, ok := want[fam.Name]
		if !ok {
			continue
		}
		delete(want, fam.Name)
		if len(fam.Series) != 1 || fam.Series[0].Value != float64(n) {
			t.Errorf("%s = %+v, per-MTA sum %d", fam.Name, fam.Series, n)
		}
	}
	for name := range want {
		t.Errorf("registry serves no %s", name)
	}
}

// fraction returns s.Observed/s.Tested (0 when untested).
func fraction(s SimpleShare) float64 {
	if s.Tested == 0 {
		return 0
	}
	return float64(s.Observed) / float64(s.Tested)
}

// Command experiment runs the full study end to end in one process —
// synthesizing authoritative DNS, a simulated MTA fleet calibrated to
// the paper's behaviour rates, and all three experiments — and prints
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	experiment [-domains 2000] [-seed 1] [-workers 64] [-timescale 0.001]
//	           [-all-tests] [-paper-scale] [-journal PREFIX] [-resume]
//
// -paper-scale uses the full dataset sizes (26,695 / 22,548 domains);
// expect a long run and tens of thousands of goroutines.
//
// -journal PREFIX journals the two probe experiments to
// PREFIX.notifymx.jsonl and PREFIX.twoweekmx.jsonl; with -resume an
// interrupted run (same -domains/-seed) skips every (MTA, test) pair a
// journal already records as finished. Populations and MTA behaviour
// are rebuilt deterministically from the seed, so the journal keys
// stay valid across processes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/experiment"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/policy"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/trace"
	"sendervalid/internal/traceflag"
	"sendervalid/internal/wal"
)

func main() {
	var (
		domains     = flag.Int("domains", 2000, "domains per population (ignored with -paper-scale)")
		seed        = flag.Int64("seed", 1, "generation seed")
		workers     = flag.Int("workers", 2*runtime.NumCPU(), "probe/delivery concurrency")
		timeScale   = flag.Float64("timescale", 0.001, "protocol delay multiplier (1.0 = paper timing)")
		allTests    = flag.Bool("all-tests", false, "probe all 39 policies instead of the reported core set")
		paperScale  = flag.Bool("paper-scale", false, "use the paper's full dataset sizes")
		logOut      = flag.String("log-out", "", "write the TwoWeekMX query log (JSON lines) for offline analysis with cmd/analyze")
		journal     = flag.String("journal", "", "journal path prefix for the probe experiments (PREFIX.notifymx.jsonl, PREFIX.twoweekmx.jsonl)")
		journalSync = flag.String("journal-sync", "none", `journal fsync policy: "none", "interval", or "always"`)
		resume      = flag.Bool("resume", false, "skip (MTA, test) pairs the journals already record as finished (requires -journal)")
		metricsAddr = flag.String("metrics-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/pprof; empty disables")
	)
	traceFlags := traceflag.Register(flag.CommandLine)
	flag.Parse()
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "experiment: -resume requires -journal")
		os.Exit(2)
	}
	syncPolicy, err := wal.ParseSyncPolicy(*journalSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment: %v\n", err)
		os.Exit(2)
	}
	tracing, err := traceFlags.Open(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiment: "+format+"\n", args...)
	})
	exitOn(err)
	defer func() {
		if err := tracing.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment: closing trace file: %v\n", err)
		}
	}()

	neSpec := dataset.NotifyEmailSpec(*seed)
	twSpec := dataset.TwoWeekMXSpec(*seed + 1)
	if !*paperScale {
		neSpec.NumDomains = *domains
		neSpec.AlexaTop1M = *domains / 9
		neSpec.AlexaTop1K = *domains / 300
		twSpec.NumDomains = *domains
		twSpec.LocalDomains = max(2, *domains/800)
	}

	tests := experiment.CoreTests
	if *allTests {
		tests = experiment.AllTests()
	}

	start := time.Now()
	ctx := context.Background()

	// The admin plane spans all three phases: each world registers its
	// serving-side families under a distinct experiment= label, so one
	// scrape shows which phase is active and what it has served.
	var reg *telemetry.Registry
	phaseMetrics := func(w *experiment.World, phase string) {
		if reg != nil {
			w.RegisterMetrics(reg, telemetry.L("experiment", phase))
		}
	}
	fleetMetrics := func() *mtasim.Metrics {
		if reg == nil {
			return nil
		}
		return &mtasim.Metrics{}
	}
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		tracing.Tracer.RegisterMetrics(reg)
		admin := &telemetry.AdminServer{Addr: *metricsAddr, Registry: reg, Health: telemetry.NewHealth()}
		if tracing.Tracer != nil {
			admin.Handle("/debug/traces", tracing.Tracer.DebugHandler(reg))
		}
		adminAddr, err := admin.Start()
		exitOn(err)
		fmt.Printf("experiment: admin plane on http://%s/metrics\n", adminAddr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = admin.Shutdown(sctx)
		}()
	}

	fmt.Printf("== generating populations (seed %d) ==\n", *seed)
	nePop := dataset.Generate(neSpec)
	twPop := dataset.Generate(twSpec)
	fmt.Print(experiment.RenderTable1(nePop, twPop))
	fmt.Print(experiment.RenderTable2([]experiment.Table2Row{
		experiment.Table2RowFor(nePop), experiment.Table2RowFor(twPop),
	}))
	fmt.Print(experiment.RenderTable3(nePop, twPop))

	fmt.Printf("\n== NotifyEmail experiment: %d domains, %d MTAs ==\n",
		len(nePop.Domains), len(nePop.MTAs))
	neWorld, err := experiment.BuildWorld(nePop, experiment.WorldConfig{
		Seed: *seed, Rates: experiment.NotifyRates(), TimeScale: *timeScale,
		EnableIPv6DNS: true, FleetMetrics: fleetMetrics(), Tracer: tracing.Tracer,
	})
	exitOn(err)
	phaseMetrics(neWorld, "notifyemail")
	neRun := experiment.RunNotifyEmail(ctx, neWorld, *workers)
	neAnalysis := experiment.AnalyzeNotifyEmail(neWorld, neRun)
	fmt.Print(experiment.RenderTable4(neAnalysis))
	fmt.Print(experiment.RenderTable6(neAnalysis))
	fmt.Print(experiment.RenderTable7(neAnalysis))
	fmt.Print(experiment.RenderFigure2(neAnalysis))
	fmt.Printf("partial validators (§6.1): %d of %d SPF-validating domains\n",
		neAnalysis.PartialDomains, neAnalysis.SPFDomains)
	neWorld.Close()

	fmt.Printf("\n== NotifyMX experiment: probing %d MTAs with %d tests ==\n",
		len(nePop.MTAs), len(tests))
	nmxWorld, err := experiment.BuildWorld(nePop, experiment.WorldConfig{
		Seed: *seed + 7, Rates: experiment.NotifyRates(), TimeScale: *timeScale,
		EnableIPv6DNS: true, ProfileDrift: 0.05, FleetMetrics: fleetMetrics(),
		Tracer: tracing.Tracer,
	})
	exitOn(err)
	phaseMetrics(nmxWorld, "notifymx")
	nmxRun := runProbes(ctx, nmxWorld, tests, *workers, *journal, "notifymx", *resume, syncPolicy, tracing.Tracer)
	nmxAnalysis := experiment.AnalyzeProbes(nmxWorld, nmxRun, false)
	nmxAnalysis.Name = "NotifyMX"
	fmt.Printf("spam-rejecting MTAs: %d; blacklist-rejecting: %d\n",
		nmxAnalysis.SpamRejected, nmxAnalysis.BlacklistRejected)
	fmt.Print(experiment.RenderConsistency(experiment.Compare(nmxWorld, neAnalysis, nmxAnalysis)))
	nmxWorld.Close()

	fmt.Printf("\n== TwoWeekMX experiment: probing %d MTAs ==\n", len(twPop.MTAs))
	twWorld, err := experiment.BuildWorld(twPop, experiment.WorldConfig{
		Seed: *seed + 13, Rates: experiment.TwoWeekRates(), TimeScale: *timeScale,
		EnableIPv6DNS: true, FleetMetrics: fleetMetrics(), Tracer: tracing.Tracer,
	})
	exitOn(err)
	phaseMetrics(twWorld, "twoweekmx")
	twRun := runProbes(ctx, twWorld, tests, *workers, *journal, "twoweekmx", *resume, syncPolicy, tracing.Tracer)
	twAnalysis := experiment.AnalyzeProbes(twWorld, twRun, true)

	fmt.Print(experiment.RenderTable5(
		[]*experiment.ProbeAnalysis{nmxAnalysis, twAnalysis}, neAnalysis))

	fmt.Println()
	sp := experiment.AnalyzeSerialParallel(twWorld)
	ll := experiment.AnalyzeLookupLimits(twWorld)
	b := experiment.AnalyzeBehaviors(twWorld)
	fmt.Print(experiment.RenderFigure5(ll, policy.LimitsDelay.Seconds()))
	fmt.Print(experiment.RenderBehaviors(sp, b))
	clusters, vectors := experiment.AnalyzeFingerprints(twWorld)
	fmt.Print(experiment.RenderFingerprints(clusters, vectors, 8))
	if *logOut != "" {
		f, err := os.Create(*logOut)
		exitOn(err)
		exitOn(twWorld.Log.WriteJSON(f))
		exitOn(f.Close())
		fmt.Printf("query log written to %s (%d entries)\n", *logOut, twWorld.Log.Len())
	}
	twWorld.Close()

	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

// runProbes executes one probe experiment, journaled when -journal is
// set. With -resume, pairs the journal records as finished are skipped
// (the replayed count is reported); without it, a non-empty journal is
// an error so two fresh runs never interleave in one record. Journals
// are checksummed WALs under the -journal-sync policy; a pre-WAL
// plain-JSONL journal is retired to a read-only rotated segment and
// continued framed.
func runProbes(ctx context.Context, w *experiment.World, tests []string, workers int, prefix, name string, resume bool, sync wal.SyncPolicy, tracer *trace.Tracer) *experiment.ProbeRun {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiment: "+format+"\n", args...)
	}
	if prefix == "" {
		if tracer == nil {
			return experiment.RunProbes(ctx, w, tests, workers)
		}
		// Unjournaled but traced: run through the campaign machinery so
		// every probe attempt still gets its root span.
		pc := experiment.NewProbeCampaign(w, tests,
			experiment.ProbeCampaignOpts{Workers: workers, Logf: logf, Tracer: tracer})
		run, err := pc.Run(ctx)
		exitOn(err)
		return run
	}
	path := prefix + "." + name + ".jsonl"
	replay, jnl, err := campaign.OpenJournal(path, campaign.JournalOptions{Sync: sync})
	exitOn(err)
	if replay.TornTail {
		fmt.Fprintf(os.Stderr, "experiment: journal %s had a torn tail; valid prefix salvaged (%d bytes dropped)\n",
			path, replay.DroppedBytes)
	}
	opts := experiment.ProbeCampaignOpts{Workers: workers, Journal: jnl, Logf: logf, Tracer: tracer}
	if resume {
		opts.Replay = replay
		if n := len(replay.Final); n > 0 {
			fmt.Printf("resuming %s: %d pairs already finished in %s\n", name, n, path)
		}
	} else if replay.Events > 0 {
		fmt.Fprintf(os.Stderr, "experiment: journal %s already has %d events; pass -resume to continue it\n", path, replay.Events)
		os.Exit(2)
	}
	pc := experiment.NewProbeCampaign(w, tests, opts)
	run, err := pc.Run(ctx)
	exitOn(err)
	if jerr := pc.JournalError(); jerr != nil {
		fmt.Fprintf(os.Stderr, "experiment: journal %s failed mid-run: %v — the durable record is incomplete\n", path, jerr)
	}
	exitOn(jnl.Close())
	return run
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment: %v\n", err)
		os.Exit(1)
	}
}

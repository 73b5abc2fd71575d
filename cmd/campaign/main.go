// Command campaign runs a durable, rate-limited probe campaign against
// the simulated world. It is the operational face of the
// internal/campaign subsystem: the same sweep cmd/experiment performs
// one-shot, but paced per MTA, retrying transient failures, journaling
// every task transition, and resumable after a crash or Ctrl-C.
//
// Usage:
//
//	campaign [-domains 2000] [-seed 1] [-tests core|all|t01,t02,...]
//	         [-workers 64] [-rate 2] [-burst 1] [-attempts 4]
//	         [-journal camp.wal] [-journal-sync none|interval|always]
//	         [-journal-rotate BYTES] [-resume] [-interval 2s]
//	         [-population notify|twoweek] [-timescale 0.001]
//	         [-chaos-seed N] [-chaos-dial-failure 0.25]
//
// The world is a deterministic function of -domains/-seed/-population,
// so a resumed invocation with the same parameters probes the same
// fleet; the journal's (MTA, test) keys line up, and only unfinished
// pairs are re-run. Interrupting with Ctrl-C cancels the campaign
// cleanly (in-flight probes stop within one SMTP step) and leaves the
// journal ready for -resume.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/experiment"
	"sendervalid/internal/netsim"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/traceflag"
	"sendervalid/internal/wal"
)

func main() {
	var (
		domains      = flag.Int("domains", 2000, "domains in the population")
		seed         = flag.Int64("seed", 1, "generation seed (must match across resume)")
		testsFlag    = flag.String("tests", "core", `test policies: "core", "all", or a comma-separated ID list`)
		workers      = flag.Int("workers", 2*runtime.NumCPU(), "global concurrency cap")
		rate         = flag.Float64("rate", 2, "probes/second budget per MTA (0 = unlimited)")
		burst        = flag.Int("burst", 1, "per-MTA token bucket depth")
		attempts     = flag.Int("attempts", 4, "attempt budget per (MTA, test) pair")
		journal      = flag.String("journal", "", "append-only journal of task transitions (checksummed WAL; a pre-WAL JSONL journal is kept as a read-only segment and continued framed)")
		journalSync  = flag.String("journal-sync", "none", `journal fsync policy: "none" (kernel-buffered), "interval" (group commit), "always" (fsync per event)`)
		journalRotat = flag.Int64("journal-rotate", 0, "rotate the journal when the live segment exceeds this many bytes (0 = never)")
		resume       = flag.Bool("resume", false, "replay the journal and re-run only unfinished pairs")
		chaosSeed    = flag.Int64("chaos-seed", 0, "inject seeded network chaos into the simulated fabric (0 disables)")
		chaosDial    = flag.Float64("chaos-dial-failure", 0.25, "dial-failure probability under -chaos-seed")
		interval     = flag.Duration("interval", 2*time.Second, "progress snapshot period (0 disables)")
		population   = flag.String("population", "notify", `population flavour: "notify" or "twoweek"`)
		timeScale    = flag.Float64("timescale", 0.001, "protocol delay multiplier (1.0 = paper timing)")
		metricsAddr  = flag.String("metrics-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/pprof; empty disables")
	)
	traceFlags := traceflag.Register(flag.CommandLine)
	flag.Parse()

	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "campaign: -resume requires -journal")
		os.Exit(2)
	}

	var tests []string
	switch *testsFlag {
	case "core":
		tests = experiment.CoreTests
	case "all":
		tests = experiment.AllTests()
	default:
		tests = strings.Split(*testsFlag, ",")
	}

	var spec dataset.Spec
	var rates = experiment.NotifyRates()
	switch *population {
	case "notify":
		spec = dataset.NotifyEmailSpec(*seed)
		spec.NumDomains = *domains
		spec.AlexaTop1M = *domains / 9
		spec.AlexaTop1K = *domains / 300
	case "twoweek":
		spec = dataset.TwoWeekMXSpec(*seed)
		spec.NumDomains = *domains
		spec.LocalDomains = max(2, *domains/800)
		rates = experiment.TwoWeekRates()
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown population %q\n", *population)
		os.Exit(2)
	}

	syncPolicy, err := wal.ParseSyncPolicy(*journalSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("== building world: %d domains, seed %d, %q rates ==\n", *domains, *seed, *population)
	pop := dataset.Generate(spec)
	world, err := experiment.BuildWorld(pop, experiment.WorldConfig{
		Seed: *seed, Rates: rates, TimeScale: *timeScale, EnableIPv6DNS: true,
	})
	exitOn(err)
	defer world.Close()

	if *chaosSeed != 0 {
		world.Fabric.SetChaosSeed(*chaosSeed)
		world.Fabric.SetDefaultFaults(&netsim.FaultProfile{
			DialFailure: *chaosDial,
			MaxChunk:    512,
		})
		fmt.Printf("campaign: chaos enabled (seed %d, dial failure %.2f)\n", *chaosSeed, *chaosDial)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
	}
	tracing, err := traceFlags.Open(logf)
	exitOn(err)
	defer func() {
		if err := tracing.Close(); err != nil {
			logf("closing trace file: %v", err)
		}
	}()
	opts := experiment.ProbeCampaignOpts{
		Workers:     *workers,
		MTARate:     *rate,
		MTABurst:    *burst,
		MaxAttempts: *attempts,
		Logf:        logf,
		Tracer:      tracing.Tracer,
	}
	var jnl campaign.Journal
	if *journal != "" {
		var replay *campaign.Replay
		replay, jnl, err = campaign.OpenJournal(*journal, campaign.JournalOptions{
			Sync:        syncPolicy,
			RotateBytes: *journalRotat,
		})
		exitOn(err)
		defer jnl.Close()
		opts.Journal = jnl
		if replay.TornTail {
			fmt.Fprintf(os.Stderr,
				"campaign: journal %s had a torn tail (%d bytes dropped, %d malformed lines); valid prefix salvaged\n",
				*journal, replay.DroppedBytes, replay.Malformed)
		}
		if *resume {
			opts.Replay = replay
			fmt.Printf("journal %s: %d events, %d done, %d failed — resuming unfinished work\n",
				*journal, replay.Events, replay.Done(), replay.Failed())
		} else if replay.Events > 0 {
			fmt.Fprintf(os.Stderr,
				"campaign: journal %s already has %d events; pass -resume to continue it\n",
				*journal, replay.Events)
			os.Exit(2)
		}
	}

	pc := experiment.NewProbeCampaign(world, tests, opts)

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		pc.RegisterMetrics(reg)
		telemetry.RegisterRuntimeMetrics(reg)
		tracing.Tracer.RegisterMetrics(reg)
		health := telemetry.NewHealth()
		health.Register("campaign", func() error { return nil })
		if jnl != nil {
			jnl.RegisterMetrics(reg, telemetry.L("name", "journal"))
			health.Register("journal", jnl.Check)
		}
		admin := &telemetry.AdminServer{Addr: *metricsAddr, Registry: reg, Health: health}
		if tracing.Tracer != nil {
			admin.Handle("/debug/traces", tracing.Tracer.DebugHandler(reg))
		}
		adminAddr, err := admin.Start()
		exitOn(err)
		fmt.Printf("campaign: admin plane on http://%s/metrics\n", adminAddr)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = admin.Shutdown(ctx)
		}()
	}

	total := pc.Snapshot().Total
	fmt.Printf("campaign: %d (MTA, test) pairs across %d MTAs, %d tests; rate %.3g/s/MTA, %d workers\n",
		total, len(pop.MTAs), len(tests), *rate, *workers)
	if total == 0 {
		fmt.Println("nothing to do: journal records every pair as finished")
		return
	}

	// Ctrl-C cancels cleanly: in-flight probes abandon their SMTP walk
	// within one step and the journal stays resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProgress := make(chan struct{})
	var progress sync.WaitGroup
	if *interval > 0 {
		progress.Add(1)
		go func() {
			defer progress.Done()
			ticker := time.NewTicker(*interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					fmt.Println(pc.Snapshot())
				case <-stopProgress:
					return
				}
			}
		}()
	}

	run, runErr := pc.Run(ctx)
	close(stopProgress)
	progress.Wait()

	s := pc.Snapshot()
	fmt.Println(s)
	if jerr := pc.JournalError(); jerr != nil {
		fmt.Fprintf(os.Stderr,
			"campaign: journal failed mid-run (%d events dropped): %v — the durable record is incomplete\n",
			s.JournalDropped, jerr)
	}
	if runErr != nil {
		if jnl != nil {
			_ = jnl.Sync()
		}
		fmt.Printf("campaign interrupted (%v): %d of %d pairs finished", runErr, s.Completed(), total)
		if *journal != "" {
			fmt.Printf("; rerun with -resume to continue")
		}
		fmt.Println()
		// os.Exit skips deferred closes: drain the span stream first so
		// an interrupted run still keeps its sampled spans.
		_ = tracing.Close()
		os.Exit(130)
	}

	a := experiment.AnalyzeProbes(world, run, false)
	fmt.Printf("\ncampaign complete: %d done, %d failed, %d retries across %d attempts\n",
		s.Done, s.Failed, s.Retried, s.Attempts)
	fmt.Printf("SPF-validating: %d of %d MTAs, %d of %d domains\n",
		a.SPFMTAs, a.MTAs, a.SPFDomains, a.Domains)
	fmt.Printf("probes completed %d of %d; spam-rejecting MTAs %d, blacklist-rejecting %d\n",
		a.ProbesCompleted, a.ProbesTotal, a.SpamRejected, a.BlacklistRejected)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
}

// Command campaign runs a durable, paced probe campaign against the
// simulated world. It is the operational face of the
// internal/campaign subsystem: the same sweep cmd/experiment performs
// one-shot, but paced per MTA, retrying transient failures, journaling
// every attempt outcome, and resumable after a crash or Ctrl-C.
//
// Usage:
//
//	campaign [-domains 2000] [-seed 1] [-tests core|all|t01,t02,...]
//	         [-workers 64] [-rate 2] [-attempts 4]
//	         [-journal camp.wal] [-journal-sync none|interval|always]
//	         [-journal-rotate BYTES] [-resume] [-interval 2s]
//	         [-population notify|twoweek] [-timescale 0.001]
//	         [-chaos-seed N] [-chaos-dial-failure 0.25]
//	         [-metrics-addr 127.0.0.1:9153]
//	         [-trace-file spans.wal] [-trace-sample 1] [-trace-slow 50ms]
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
	"io"
	"os"
	"sync"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/cli"
	"sendervalid/internal/dataset"
	"sendervalid/internal/experiment"
	"sendervalid/internal/netsim"
	"sendervalid/internal/telemetry"
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var study cli.Study
	study.Register(fs)
	var (
		testsFlag    = fs.String("tests", "core", `test policies: "core", "all", or a comma-separated ID list`)
		rate         = fs.Float64("rate", 2, "probes/second budget per MTA (0 = unlimited)")
		attempts     = fs.Int("attempts", 4, "attempt budget per (MTA, test) pair")
		journalRotat = fs.Int64("journal-rotate", 0, "rotate the journal when the live segment exceeds this many bytes (0 = never)")
		chaosSeed    = fs.Int64("chaos-seed", 0, "inject seeded network chaos into the simulated fabric (0 disables)")
		chaosDial    = fs.Float64("chaos-dial-failure", 0.25, "dial-failure probability under -chaos-seed")
		interval     = fs.Duration("interval", 2*time.Second, "progress snapshot period (0 disables)")
		population   = fs.String("population", "notify", `population flavour: "notify" or "twoweek"`)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	logf := cli.Logf(stderr, "campaign")
	fail := func(err error) int { return cli.Exit(ctx, logf, err) }

	syncPolicy, err := study.Check()
	if err != nil {
		return fail(err)
	}
	tests, err := experiment.ParseTests(*testsFlag)
	switch {
	case err != nil:
		return fail(cli.Usage(err))
	case !(*rate >= 0):
		return fail(cli.Usage(fmt.Errorf("-rate must be at least 0, got %v", *rate)))
	case *attempts < 1:
		return fail(cli.Usage(fmt.Errorf("-attempts must be at least 1, got %d", *attempts)))
	case !(*chaosDial >= 0 && *chaosDial <= 1):
		return fail(cli.Usage(fmt.Errorf("-chaos-dial-failure must be in [0, 1], got %v", *chaosDial)))
	}

	var spec dataset.Spec
	var rates = experiment.NotifyRates()
	switch *population {
	case "notify":
		spec = dataset.NotifyEmailSpec(study.Seed)
	case "twoweek":
		spec = dataset.TwoWeekMXSpec(study.Seed)
		rates = experiment.TwoWeekRates()
	default:
		return fail(cli.Usage(fmt.Errorf("unknown population %q", *population)))
	}

	fmt.Fprintf(stdout, "== building world: %d domains, seed %d, %q rates ==\n", study.Domains, study.Seed, *population)
	pop := dataset.Generate(spec.Scaled(study.Domains))
	world, err := experiment.BuildWorld(pop, experiment.WorldConfig{
		Seed: study.Seed, Rates: rates, TimeScale: study.TimeScale, EnableIPv6DNS: true,
	})
	if err != nil {
		return fail(err)
	}
	defer world.Close()

	if *chaosSeed != 0 {
		world.Fabric.SetChaosSeed(*chaosSeed)
		world.Fabric.SetDefaultFaults(&netsim.FaultProfile{
			DialFailure: *chaosDial,
			MaxChunk:    512,
		})
		fmt.Fprintf(stdout, "campaign: chaos enabled (seed %d, dial failure %.2f)\n", *chaosSeed, *chaosDial)
	}

	// Deferred, so an interrupted run still keeps its sampled spans.
	tracing, err := study.Trace.Open(logf)
	if err != nil {
		return fail(err)
	}
	defer tracing.Close()
	cfg := campaign.Config{
		Workers:     study.Workers,
		ShardRate:   *rate,
		MaxAttempts: *attempts,
		Tracer:      tracing.Tracer,
	}
	var jnl campaign.Journal
	var replay *campaign.Replay
	if study.Journal != "" {
		var recorded *campaign.Replay
		recorded, jnl, err = campaign.OpenJournal(study.Journal, campaign.JournalOptions{
			Sync:        syncPolicy,
			RotateBytes: *journalRotat,
		})
		if err != nil {
			return fail(err)
		}
		// Closing syncs a dirty segment: a failure there loses part of
		// the durable record, so it fails a run that otherwise succeeded.
		defer func() {
			if err := jnl.Close(); err != nil {
				logf("closing journal %s: %v — the durable record may be incomplete", study.Journal, err)
				if code == cli.ExitOK {
					code = cli.ExitFailure
				}
			}
		}()
		cfg.Journal = jnl
		if replay, err = recorded.Admit(study.Journal, study.Resume, logf); err != nil {
			return fail(cli.Usage(err))
		}
		if study.Resume {
			fmt.Fprintf(stdout, "journal %s: %d events, %d done, %d failed — resuming unfinished work\n",
				study.Journal, recorded.Events, recorded.Done(), recorded.Failed())
		}
	}

	pc := experiment.NewProbeCampaign(world, tests, cfg, replay)

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
	stopAdmin, err := cli.StartAdmin("campaign", study.MetricsAddr, stdout, reg, health, tracing.Tracer)
	if err != nil {
		return fail(err)
	}
	defer stopAdmin()

	total := pc.Snapshot().Total
	fmt.Fprintf(stdout, "campaign: %d (MTA, test) pairs across %d MTAs, %d tests; rate %.3g/s/MTA, %d workers\n",
		total, len(pop.MTAs), len(tests), *rate, study.Workers)
	if total == 0 {
		fmt.Fprintln(stdout, "nothing to do: journal records every pair as finished")
		return cli.ExitOK
	}

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
					fmt.Fprintln(stdout, pc.Snapshot())
				case <-stopProgress:
					return
				}
			}
		}()
	}

	// Ctrl-C cancels ctx: in-flight probes abandon their SMTP walk
	// within one step and the journal stays resumable.
	run, runErr := pc.Run(ctx)
	close(stopProgress)
	progress.Wait()

	s := pc.Snapshot()
	fmt.Fprintln(stdout, s)
	if jerr := pc.JournalError(); jerr != nil {
		logf("journal failed mid-run (%d events dropped): %v — the durable record is incomplete",
			s.JournalDropped, jerr)
	}
	if runErr != nil {
		fmt.Fprintf(stdout, "campaign interrupted (%v): %d of %d pairs finished", runErr, s.Completed(), total)
		if study.Journal != "" {
			fmt.Fprintf(stdout, "; rerun with -resume to continue")
		}
		fmt.Fprintln(stdout)
		return cli.ExitInterrupted
	}

	pc.WarnResumed(logf)
	a := experiment.Probes(world.Population, world.Observations(), run, false)
	fmt.Fprintf(stdout, "\ncampaign complete: %d done, %d failed, %d retries across %d attempts\n",
		s.Done, s.Failed, s.Retried, s.Attempts)
	fmt.Fprintf(stdout, "SPF-validating: %d of %d MTAs, %d of %d domains\n",
		a.SPFMTAs.Observed, a.SPFMTAs.Tested, a.SPFDomains.Observed, a.SPFDomains.Tested)
	fmt.Fprintf(stdout, "probes completed %d of %d; spam-rejecting MTAs %d, blacklist-rejecting %d\n",
		a.ProbesCompleted.Observed, a.ProbesCompleted.Tested, a.SpamRejected, a.BlacklistRejected)
	return cli.ExitOK
}

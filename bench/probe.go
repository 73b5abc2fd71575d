package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/probe"
	"sendervalid/internal/smtp"
	"sendervalid/internal/wal"
)

// probe-campaign: the full measurement. A NotifyEmail-shaped population
// in a simulated world; a campaign (sharded by MTA, seed-shuffled,
// WAL-journaled) probes every MTA with all 39 policies through the
// netsim fabric while each MTA's own resolver queries the authoritative
// server over loopback; then the query log is written out, ingested the
// way cmd/analyze ingests it, and analysed. Op = one probe.

// minValidatorCoverage is the pinned share of planted SPF validators
// the query log must recover. The rest reject the blacklisted probe
// client before they validate anything (paper §6.2); the observed share
// is 0.59–0.68 across seeds 1–6 at 180 and 600 domains.
const minValidatorCoverage = 0.5

type probeInstance struct {
	cfg         config
	rec         *recorder
	world       *experiment.World
	journalPath string
	journal     campaign.Journal
}

func setupProbeCampaign(cfg config, rec *recorder) (instance, error) {
	in := &probeInstance{cfg: cfg, rec: rec, journalPath: filepath.Join(cfg.OutDir, "campaign-journal.wal")}
	domains := cfg.scaled(60, 4)
	spec := dataset.NotifyEmailSpec(cfg.Seed)
	spec.NumDomains = domains
	spec.AlexaTop1M = domains / 9
	spec.AlexaTop1K = domains / 300
	pop := dataset.Generate(spec)
	var err error
	in.world, err = experiment.BuildWorld(pop, experiment.WorldConfig{
		Seed: cfg.Seed, Rates: experiment.NotifyRates(), TimeScale: 0.001, EnableIPv6DNS: true,
	})
	if err != nil {
		return nil, err
	}
	_, in.journal, err = campaign.OpenJournal(in.journalPath, campaign.JournalOptions{Sync: wal.SyncNone})
	if err != nil {
		in.world.Close()
		return nil, err
	}
	return in, nil
}

func (in *probeInstance) close() {
	_ = in.journal.Close() // closing twice is harmless; run checks the first Close
	in.world.Close()
}

func (in *probeInstance) run(res *result) error {
	w := in.world
	pop := w.Population
	tests := experiment.AllTests()
	res.Sizes["domains"] = int64(len(pop.Domains))
	res.Sizes["mtas"] = int64(len(pop.MTAs))
	res.Sizes["tests"] = int64(len(tests))

	var dial smtp.Dialer = w.Fabric.BoundDialer(experiment.ProbeAddr4, experiment.ProbeAddr6)
	var journal interface{ Write([]byte) (int, error) } = in.journal
	var smtpShim *smtpDialer
	var journalTimes *journalShim
	if in.rec != nil {
		smtpShim = &smtpDialer{inner: dial, rec: in.rec}
		dial = smtpShim
		journalTimes = &journalShim{inner: in.journal, rec: in.rec}
		journal = journalTimes
	}
	client := &probe.Client{
		Dialer:     dial,
		Suffix:     experiment.DefaultTestSuffix,
		HeloDomain: "probe.dns-lab.example",
		HeloTestID: "t03",
		Timeout:    10 * time.Second,
	}
	// One recipient domain per MTA: the first that designates it
	// (paper §5.2), as experiment.NewProbeCampaign chooses.
	recipient := make(map[string]string, len(pop.MTAs))
	for _, d := range pop.Domains {
		for _, m := range d.MTAs {
			if _, ok := recipient[m.ID]; !ok {
				recipient[m.ID] = d.Name
			}
		}
	}
	info := make(map[string]*dataset.MTAInfo, len(pop.MTAs))
	for _, m := range pop.MTAs {
		info[m.ID] = m
	}

	var mu sync.Mutex
	results := make(map[campaign.Key]*probe.Result, len(pop.MTAs)*len(tests))
	lat := make([]int64, 0, len(pop.MTAs)*len(tests))
	var taskSeq atomic.Int64

	win := startWindow()
	camp := campaign.New(campaign.Config{
		Workers: in.cfg.Clients,
		Seed:    in.cfg.Seed,
		Journal: journal,
	}, func(ctx context.Context, t campaign.Task) error {
		root := opCtx{trace: taskSeq.Add(1)}
		taskSpan, taskStart := in.rec.begin(root)
		callSpan, callStart := in.rec.begin(taskSpan)
		if in.rec != nil {
			ctx = withOp(ctx, callSpan)
		}
		c := *client
		c.RecipientDomain = recipient[t.MTA]
		t0 := time.Now()
		r := c.Probe(ctx, info[t.MTA].Addr4, t.MTA, t.Test)
		d := int64(time.Since(t0))
		in.rec.end(spanProbeCall, taskSpan, callSpan, callStart)
		mu.Lock()
		results[t.Key()] = r
		lat = append(lat, d)
		mu.Unlock()
		in.rec.end(spanCampaignTask, root, taskSpan, taskStart)
		return attemptErr(r)
	})
	order := append([]*dataset.MTAInfo(nil), pop.MTAs...)
	rand.New(rand.NewSource(in.cfg.Seed^0x5bd1e995)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	tasks := make([]campaign.Task, 0, len(order)*len(tests))
	for _, m := range order {
		for _, id := range tests {
			tasks = append(tasks, campaign.Task{MTA: m.ID, Test: id})
		}
	}
	camp.Add(tasks...)
	runErr := camp.Run(context.Background())
	w.Quiesce()
	wall, cpu := win.stop()
	if runErr != nil {
		return runErr
	}

	snap := camp.Snapshot()
	total := int64(snap.Total)
	res.Attempted = total
	res.Failed = total - int64(snap.Done)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.Samples = int64(len(lat))
	queries := int64(w.Log.Len())
	res.set("ops_per_s", float64(total)/wall.Seconds())
	res.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(total))
	res.set("p50_ms", percentileMs(lat, 0.50))
	res.set("p99_ms", percentileMs(lat, 0.99))
	res.set("dns_queries_per_s", float64(queries)/wall.Seconds())

	// The rest of the pipeline: write the log out, ingest it as
	// cmd/analyze does, run the analyses.
	logPath := filepath.Join(in.cfg.OutDir, "campaign-queries.jsonl")
	var entries []dnsserver.LogEntry
	var ingested int64
	writeout, err := in.stage(spanDnsserverLogWriteout, func() error {
		f, err := os.Create(logPath)
		if err != nil {
			return err
		}
		if err := w.Log.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	ingest, err := in.stage(spanDnsserverIngest, func() error {
		f, err := dnsserver.OpenLogStream(logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return dnsserver.ParForEachLogJSONOrdered(f, in.cfg.Clients, func(e dnsserver.LogEntry) error {
			ingested++
			if e.MTAID != "" {
				entries = append(entries, e)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	analyze, _ := in.stage(spanExperimentAnalyze, func() error {
		experiment.AnalyzeSerialParallelEntries(entries)
		experiment.AnalyzeLookupLimitsEntries(entries)
		experiment.AnalyzeBehaviorsEntries(entries)
		experiment.AnalyzeFingerprintEntries(entries)
		return nil
	})
	res.set("pipeline_s", (wall + writeout + ingest + analyze).Seconds())

	// Output checks.
	if snap.Done != snap.Total || snap.Failed != 0 {
		res.failCheck("campaign finished %d of %d tasks done, %d failed", snap.Done, snap.Total, snap.Failed)
	}
	if err := camp.JournalError(); err != nil {
		res.failCheck("journal failed mid-run: %v", err)
	}
	if err := in.journal.Close(); err != nil {
		res.failCheck("closing journal: %v", err)
	}
	replay, reopened, err := campaign.OpenJournal(in.journalPath, campaign.JournalOptions{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	_ = reopened.Close() // opened only to replay; nothing was appended
	if replay.Done() != snap.Done || replay.TornTail {
		res.failCheck("journal replays to %d done (torn tail: %v), campaign reported %d", replay.Done(), replay.TornTail, snap.Done)
	}
	if ingested != queries {
		res.failCheck("ingest read %d entries, the server logged %d", ingested, queries)
	}
	if n := w.DNS.Panics(); n != 0 {
		res.failCheck("authoritative server recovered %d panics", n)
	}
	run := &experiment.ProbeRun{Tests: tests, Results: make(map[string][]*probe.Result, len(pop.MTAs))}
	for k, r := range results {
		run.Results[k.MTA] = append(run.Results[k.MTA], r)
	}
	found := experiment.AnalyzeProbes(w, run, false).ValidatingMTASet
	planted := 0
	for id, m := range w.MTAs {
		if m.Profile().ValidatesSPF {
			planted++
		} else if found[id] {
			res.failCheck("MTA %s was planted as non-validating but the log attributes queries to it", id)
		}
	}
	// Below a few dozen validators (the smoke test's scale) the share
	// is too coarse to pin.
	if share := float64(len(found)) / float64(max(planted, 1)); planted >= 30 && share < minValidatorCoverage {
		res.failCheck("query log recovers %d of %d planted SPF validators (%.2f), pinned minimum %.2f",
			len(found), planted, share, minValidatorCoverage)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("recovered %d of %d planted SPF-validating MTAs from the query log", len(found), planted))

	if in.rec != nil {
		stats := rollUp(in.rec.all())
		checkSelfTimes(res, stats)
		busy := stats[spanCampaignTask].Total.Seconds()
		res.set("campaign.task_busy_s", busy)
		res.set("campaign.sched_idle_s", float64(in.cfg.Clients)*wall.Seconds()-busy)
		res.set("campaign.attempts", float64(snap.Attempts))
		res.set("campaign.retried", float64(snap.Retried))
		res.set("campaign.journal_write_s", stats[spanCampaignJournalWrite].Total.Seconds())
		res.set("campaign.journal_events", float64(journalTimes.events.Load()))
		res.set("campaign.journal_bytes", float64(journalTimes.bytes.Load()))
		res.set("probe.call_s", stats[spanProbeCall].Total.Seconds())
		res.set("probe.self_s", stats[spanProbeCall].Self.Seconds())
		res.set("smtp.dial_s", stats[spanSmtpDial].Total.Seconds())
		res.set("smtp.write_s", stats[spanSmtpWrite].Total.Seconds())
		res.set("smtp.reply_wait_s", stats[spanSmtpReplyWait].Total.Seconds())
		res.set("smtp.round_trips", float64(smtpShim.roundTrips.Load()))
		var sessions, spfChecks, heloChecks int
		for _, m := range w.MTAs {
			st := m.Stats()
			sessions += st.Sessions
			spfChecks += st.SPFChecks
			heloChecks += st.HELOChecks
		}
		res.set("mtasim.sessions", float64(sessions))
		res.set("mtasim.spf_checks", float64(spfChecks))
		res.set("mtasim.helo_checks", float64(heloChecks))
		res.set("dnsserver.queries", float64(queries))
		res.set("dnsserver.queries_per_probe", float64(queries)/float64(total))
		res.set("dnsserver.refused", float64(w.DNS.Refused()))
		res.set("dnsserver.panics", float64(w.DNS.Panics()))
		res.set("dnsserver.log_writeout_s", writeout.Seconds())
		res.set("dnsserver.ingest_s", ingest.Seconds())
		res.set("experiment.analyze_s", analyze.Seconds())
	}
	return nil
}

// stage times one post-campaign stage, as a root span on a traced run.
func (in *probeInstance) stage(name spanName, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	self, start := in.rec.begin(opCtx{})
	err := fn()
	in.rec.end(name, opCtx{}, self, start)
	return time.Since(t0), err
}

// attemptErr is the campaign's attempt-error contract for a probe, as
// experiment.NewProbeCampaign applies it: a completed dialogue or a 5xx
// rejection is a measurement outcome (task done); transport failures
// and 4xx replies are errors for the scheduler to classify and retry.
func attemptErr(r *probe.Result) error {
	if r.Err == nil {
		return nil
	}
	var smtpErr *smtp.Error
	if errors.As(r.Err, &smtpErr) && smtpErr.Permanent() {
		return nil
	}
	return r.Err
}

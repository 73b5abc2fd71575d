package experiment

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/cli"
	"sendervalid/internal/dataset"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/policy"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/trace"
	"sendervalid/internal/wal"
)

// StudyConfig is cmd/experiment's command line as a value: one field
// per flag, the shared study flags through cli.Study.
type StudyConfig struct {
	cli.Study
	// AllTests probes all 39 policies instead of CoreTests.
	AllTests bool
	// PaperScale uses the paper's full dataset sizes (26,695 / 22,548
	// domains) instead of Domains.
	PaperScale bool
	// LogOut, when set, receives the TwoWeekMX query log as JSON lines
	// for offline analysis with cmd/analyze.
	LogOut string
}

// StudyResult is what the study measured: the two populations and
// every analysis RunStudy printed.
type StudyResult struct {
	NotifyPop  *dataset.Population
	TwoWeekPop *dataset.Population

	NotifyEmail *NotifyEmailAnalysis
	NotifyMX    *ProbeAnalysis
	TwoWeekMX   *ProbeAnalysis
	// Consistency is the §6.2 NotifyEmail-vs-NotifyMX contrast.
	Consistency Consistency

	// The §7 behaviour analyses and §8 fingerprints, over the TwoWeekMX
	// query log.
	SerialParallel     SerialParallelResult
	LookupLimits       LookupLimitResult
	Behaviors          *BehaviorResults
	Fingerprints       []fingerprint.Cluster
	FingerprintVectors map[string]*fingerprint.Vector
}

// The study design (paper §5): NotifyMX probes the NotifyEmail
// population again months later — a world of its own seed in which a
// few MTAs changed behaviour — and TwoWeekMX is a different population
// altogether.
const (
	twoWeekPopSeedOffset = 1
	notifyMXSeedOffset   = 7
	twoWeekMXSeedOffset  = 13
	notifyMXDrift        = 0.05
)

// study carries one RunStudy invocation through its phases.
type study struct {
	cfg    StudyConfig
	out    io.Writer
	logf   func(format string, args ...any)
	tracer *trace.Tracer
	reg    *telemetry.Registry // nil without -metrics-addr
	sync   wal.SyncPolicy
	tests  []string
	res    StudyResult
	// probing, when set, sees each probe sweep's world and campaign
	// before the sweep runs: the seam the apparatus-invariance test
	// injects SMTP faults and reads the campaign's outcome counts by.
	probing func(w *World, pc *ProbeCampaign)
}

// RunStudy runs the whole measurement in one process — NotifyEmail
// deliveries, then the NotifyMX and TwoWeekMX probe sweeps, each
// against its own simulated world — printing every table and figure of
// the paper's evaluation to stdout as it goes and returning the
// analyses behind them. Warnings go to stderr. Populations and MTA
// behaviour are deterministic functions of the seed, so the probe
// sweeps' journals (cfg.Journal) stay valid across processes; the
// NotifyEmail phase is not journaled (see RunNotifyEmail). A request
// RunStudy refuses — -resume without -journal, a used journal without
// -resume — comes back as a cli.Usage error; cancelling ctx ends the
// run with ctx's error.
func RunStudy(ctx context.Context, cfg StudyConfig, stdout, stderr io.Writer) (*StudyResult, error) {
	return (&study{cfg: cfg, out: stdout, logf: cli.Logf(stderr, "experiment")}).run(ctx)
}

// run is RunStudy's body, over a study carrying its config, output and
// (for tests) its probing seam.
func (s *study) run(ctx context.Context) (*StudyResult, error) {
	cfg := s.cfg
	s.tests = CoreTests
	if cfg.AllTests {
		s.tests = AllTests()
	}
	var err error
	if s.sync, err = cfg.Check(); err != nil {
		return nil, err
	}
	tracing, err := cfg.Trace.Open(s.logf)
	if err != nil {
		return nil, err
	}
	defer tracing.Close()
	s.tracer = tracing.Tracer

	// The admin plane spans all three phases: each world registers its
	// serving-side families under a distinct experiment= label, so one
	// scrape shows which phase is active and what it has served.
	if cfg.MetricsAddr != "" {
		s.reg = telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(s.reg)
		s.tracer.RegisterMetrics(s.reg)
	}
	stopAdmin, err := cli.StartAdmin("experiment", cfg.MetricsAddr, s.out, s.reg, telemetry.NewHealth(), s.tracer)
	if err != nil {
		return nil, err
	}
	defer stopAdmin()

	start := time.Now()
	neSpec := dataset.NotifyEmailSpec(cfg.Seed)
	twSpec := dataset.TwoWeekMXSpec(cfg.Seed + twoWeekPopSeedOffset)
	if !cfg.PaperScale {
		neSpec, twSpec = neSpec.Scaled(cfg.Domains), twSpec.Scaled(cfg.Domains)
	}
	fmt.Fprintf(s.out, "== generating populations (seed %d) ==\n", cfg.Seed)
	ne, tw := dataset.Generate(neSpec), dataset.Generate(twSpec)
	s.res.NotifyPop, s.res.TwoWeekPop = ne, tw
	fmt.Fprint(s.out, RenderTable1(ne, tw))
	fmt.Fprint(s.out, RenderTable2([]Table2Row{Table2RowFor(ne), Table2RowFor(tw)}))
	fmt.Fprint(s.out, RenderTable3(ne, tw))

	for _, phase := range []func(context.Context) error{s.notifyEmail, s.notifyMX, s.twoWeekMX} {
		if err := phase(ctx); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(s.out, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return &s.res, nil
}

// world builds one phase's simulated world and publishes its
// serving-side metrics under experiment=<phase>.
func (s *study) world(pop *dataset.Population, phase string, seedOffset int64, rates mtasim.Rates, drift float64) (*World, error) {
	wc := WorldConfig{
		Seed: s.cfg.Seed + seedOffset, Rates: rates, TimeScale: s.cfg.TimeScale,
		EnableIPv6DNS: true, ProfileDrift: drift, Tracer: s.tracer,
	}
	if s.reg != nil {
		wc.FleetMetrics = &mtasim.Metrics{}
	}
	w, err := BuildWorld(pop, wc)
	if err != nil {
		return nil, err
	}
	if s.reg != nil {
		w.RegisterMetrics(s.reg, telemetry.L("experiment", phase))
	}
	return w, nil
}

func (s *study) notifyEmail(ctx context.Context) error {
	pop := s.res.NotifyPop
	fmt.Fprintf(s.out, "\n== NotifyEmail experiment: %d domains, %d MTAs ==\n", len(pop.Domains), len(pop.MTAs))
	w, err := s.world(pop, "notifyemail", 0, NotifyRates(), 0)
	if err != nil {
		return err
	}
	defer w.Close()
	run := RunNotifyEmail(ctx, w, s.cfg.Workers)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("NotifyEmail interrupted: %w", err)
	}
	a := NotifyEmail(pop, w.DomainObservations(), run)
	s.res.NotifyEmail = a
	fmt.Fprint(s.out, RenderTable4(a))
	fmt.Fprint(s.out, RenderTable6(a))
	fmt.Fprint(s.out, RenderTable7(a))
	fmt.Fprint(s.out, RenderFigure2(a))
	partial := a.PartialDomains()
	fmt.Fprintf(s.out, "partial validators (§6.1): %d of %d SPF-validating domains\n", partial.Observed, partial.Tested)
	return nil
}

func (s *study) notifyMX(ctx context.Context) error {
	pop := s.res.NotifyPop
	fmt.Fprintf(s.out, "\n== NotifyMX experiment: probing %d MTAs with %d tests ==\n", len(pop.MTAs), len(s.tests))
	w, err := s.world(pop, "notifymx", notifyMXSeedOffset, NotifyRates(), notifyMXDrift)
	if err != nil {
		return err
	}
	defer w.Close()
	run, err := s.probe(ctx, w, "notifymx")
	if err != nil {
		return err
	}
	a := Probes(pop, w.Observations(), run, false)
	a.Name = "NotifyMX"
	s.res.NotifyMX = a
	fmt.Fprintf(s.out, "spam-rejecting MTAs: %d; blacklist-rejecting: %d\n", a.SpamRejected, a.BlacklistRejected)
	s.res.Consistency = Compare(pop, s.res.NotifyEmail, a)
	fmt.Fprint(s.out, RenderConsistency(s.res.Consistency))
	return nil
}

func (s *study) twoWeekMX(ctx context.Context) error {
	pop := s.res.TwoWeekPop
	fmt.Fprintf(s.out, "\n== TwoWeekMX experiment: probing %d MTAs ==\n", len(pop.MTAs))
	w, err := s.world(pop, "twoweekmx", twoWeekMXSeedOffset, TwoWeekRates(), 0)
	if err != nil {
		return err
	}
	defer w.Close()
	run, err := s.probe(ctx, w, "twoweekmx")
	if err != nil {
		return err
	}
	// One fold of the phase's log behind Table 5, §7 and §8.
	obs := w.Observations()
	r := &s.res
	r.TwoWeekMX = Probes(pop, obs, run, true)
	fmt.Fprint(s.out, RenderTable5([]*ProbeAnalysis{r.NotifyMX, r.TwoWeekMX}, r.NotifyEmail))

	fmt.Fprintln(s.out)
	r.SerialParallel = SerialParallel(obs)
	r.LookupLimits = LookupLimits(obs)
	r.Behaviors = Behaviors(obs)
	fmt.Fprint(s.out, RenderFigure5(r.LookupLimits, policy.LimitsDelay.Seconds()))
	fmt.Fprint(s.out, RenderBehaviors(r.SerialParallel, r.Behaviors))
	r.Fingerprints, r.FingerprintVectors = Fingerprints(obs)
	fmt.Fprint(s.out, RenderFingerprints(r.Fingerprints, r.FingerprintVectors, 8))
	if s.cfg.LogOut != "" {
		if err := writeLog(w, s.cfg.LogOut); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "query log written to %s (%d entries)\n", s.cfg.LogOut, w.Log.Len())
	}
	return nil
}

// probe runs one probe sweep over w, journaled to PREFIX.<name>.jsonl
// when -journal is set. With -resume, pairs the journal records as
// finished are skipped (the replayed count is reported); without it, a
// journal that already has events is refused. Journals are checksummed
// WALs under the -journal-sync policy.
func (s *study) probe(ctx context.Context, w *World, name string) (run *ProbeRun, err error) {
	cfg := campaign.Config{Workers: s.cfg.Workers, Tracer: s.tracer}
	var replay *campaign.Replay
	path := s.cfg.Journal + "." + name + ".jsonl"
	if s.cfg.Journal != "" {
		recorded, jnl, oerr := campaign.OpenJournal(path, campaign.JournalOptions{Sync: s.sync})
		if oerr != nil {
			return nil, oerr
		}
		defer func() {
			if cerr := jnl.Close(); err == nil {
				err = cerr
			}
		}()
		cfg.Journal = jnl
		if replay, err = recorded.Admit(path, s.cfg.Resume, s.logf); err != nil {
			return nil, cli.Usage(err)
		}
		if n := len(recorded.Final); s.cfg.Resume && n > 0 {
			fmt.Fprintf(s.out, "resuming %s: %d pairs already finished in %s\n", name, n, path)
		}
	}
	pc := NewProbeCampaign(w, s.tests, cfg, replay)
	if s.probing != nil {
		s.probing(w, pc)
	}
	if run, err = pc.Run(ctx); err != nil {
		return nil, fmt.Errorf("%s interrupted: %w", name, err)
	}
	if jerr := pc.JournalError(); jerr != nil {
		s.logf("journal %s failed mid-run: %v — the durable record is incomplete", path, jerr)
	}
	pc.WarnResumed(s.logf)
	return run, nil
}

// writeLog saves the world's query log as JSON lines.
func writeLog(w *World, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = w.Log.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

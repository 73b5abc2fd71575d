package experiment

import (
	"context"
	"errors"
	mrand "math/rand"
	"sync"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/probe"
	"sendervalid/internal/smtp"
)

// ProbeCampaign is a prepared probe run over every (MTA, test) pair of
// a world. Its embedded *campaign.Campaign exposes Snapshot for live
// progress reporting while Run executes.
type ProbeCampaign struct {
	*campaign.Campaign

	world *World
	tests []string
	// pruned counts the pairs a Replay recorded as finished.
	pruned int

	mu      sync.Mutex
	results map[campaign.Key]*probe.Result
}

// NewProbeCampaign builds (without running) a campaign covering the
// full (MTA, test) cross product, sharded by MTA so no destination is
// probed concurrently, with MTA order shuffled (paper §5.2). cfg goes
// to campaign.New as it is, except that its Seed is the world's seed.
// replay, when resuming, prunes the pairs it records as finished.
func NewProbeCampaign(w *World, tests []string, cfg campaign.Config, replay *campaign.Replay) *ProbeCampaign {
	if len(tests) == 0 {
		tests = CoreTests
	}
	cfg.Seed = w.cfg.Seed

	client := &probe.Client{
		Dialer:     w.Fabric.BoundDialer(ProbeAddr4, ProbeAddr6),
		Suffix:     DefaultTestSuffix,
		HeloDomain: "probe.dns-lab.example",
		HeloTestID: "t03",
		Timeout:    smtpTimeout,
	}

	// One recipient domain per MTA: the first domain designating it
	// (paper §5.2: one recipient domain selected per MTA).
	recipientDomain := make(map[string]string)
	for _, d := range w.Population.Domains {
		for _, m := range d.MTAs {
			if _, ok := recipientDomain[m.ID]; !ok {
				recipientDomain[m.ID] = d.Name
			}
		}
	}
	addrOf := make(map[string]*dataset.MTAInfo, len(w.Population.MTAs))
	for _, info := range w.Population.MTAs {
		addrOf[info.ID] = info
	}

	pc := &ProbeCampaign{
		world:   w,
		tests:   tests,
		results: make(map[campaign.Key]*probe.Result),
	}
	pc.Campaign = campaign.New(cfg, func(ctx context.Context, t campaign.Task) error {
		info := addrOf[t.MTA]
		c := *client
		c.RecipientDomain = recipientDomain[t.MTA]
		res := c.Probe(ctx, info.Addr4, t.MTA, t.Test)
		pc.record(t.Key(), res)
		return attemptErr(res.Err)
	})

	order := append([]*dataset.MTAInfo(nil), w.Population.MTAs...)
	mrand.New(mrand.NewSource(w.cfg.Seed^0x5bd1e995)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	tasks := make([]campaign.Task, 0, len(order)*len(tests))
	for _, info := range order {
		for _, testID := range tests {
			tasks = append(tasks, campaign.Task{MTA: info.ID, Test: testID})
		}
	}
	if replay != nil {
		all := len(tasks)
		tasks = replay.Unfinished(tasks)
		pc.pruned = all - len(tasks)
	}
	pc.Campaign.Add(tasks...)
	return pc
}

// WarnResumed tells the reader of a resumed run's summary what it does
// not cover: pairs finished by an earlier process were not probed
// again, so their queries are in that process's log, not this one's,
// and every figure derived from the query log undercounts by them.
// Silent when nothing was pruned.
func (pc *ProbeCampaign) WarnResumed(logf func(format string, args ...any)) {
	if pc.pruned > 0 {
		logf("resumed run: %d pairs were finished by an earlier process and left no queries in this process's log; the summary below covers the %d pairs run now",
			pc.pruned, pc.Snapshot().Total)
	}
}

// record keeps the latest attempt's result per task; a retried
// attempt's outcome supersedes the transient failure before it.
func (pc *ProbeCampaign) record(k campaign.Key, res *probe.Result) {
	pc.mu.Lock()
	pc.results[k] = res
	pc.mu.Unlock()
}

// attemptErr converts a probe's or a delivery's error into the
// campaign's attempt-error contract. Completed dialogues and 5xx
// rejections are measurement outcomes — the task is done, whatever the
// MTA said. Transport failures, cancellations, and 4xx replies surface
// as errors for the scheduler to classify and retry.
func attemptErr(err error) error {
	var smtpErr *smtp.Error
	if errors.As(err, &smtpErr) && smtpErr.Permanent() {
		return nil
	}
	return err
}

// Run executes the campaign and assembles the ProbeRun. On
// cancellation the partial results collected so far are returned with
// the context error; the journal (if any) lets a later run resume.
func (pc *ProbeCampaign) Run(ctx context.Context) (*ProbeRun, error) {
	run := &ProbeRun{Tests: pc.tests}
	err := pc.Campaign.Run(ctx)
	pc.world.Quiesce()
	pc.mu.Lock()
	run.Results = make(map[string][]*probe.Result, len(pc.results))
	for k, res := range pc.results {
		run.Results[k.MTA] = append(run.Results[k.MTA], res)
	}
	pc.mu.Unlock()
	return run, err
}

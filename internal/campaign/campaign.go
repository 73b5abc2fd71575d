// Package campaign turns one-shot probe runs into durable measurement
// campaigns. The study's NotifyMX/TwoWeekMX sweeps probed tens of
// thousands of MTAs over weeks, pacing traffic per target so the
// measurement stayed polite and unblocked; this package provides the
// orchestration that makes such sweeps survivable at scale:
//
//   - a sharded work queue keyed by target MTA so no single
//     destination is ever probed concurrently;
//   - a per-shard pace under a global concurrency cap: a shard's next
//     attempt starts no sooner than 1/rate after its last, so aggregate
//     throughput scales with the number of targets while each target
//     sees at most its own budget;
//   - retry of transient failures (connection refused, timeouts, 4xx
//     SMTP replies) with exponential backoff and jitter, bounded by an
//     attempt budget, while terminal outcomes are never retried;
//   - a crash-safe append-only JSONL journal of attempt outcomes (a
//     retry, then the final done or failed) that a resumed run replays
//     so it re-runs only unfinished (MTA, test) pairs;
//   - a live Snapshot of counters for progress reporting.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"sendervalid/internal/trace"
)

// Key identifies one unit of campaign work: an (MTA, test) pair.
type Key struct {
	MTA  string `json:"mta"`
	Test string `json:"test"`
}

// Task is one schedulable unit of work. Its MTA is its politeness
// domain (shard): tasks for one MTA never run concurrently and draw
// from one rate budget, the per-destination discipline the study used.
type Task struct {
	// MTA and Test identify the work; together they are the task's
	// durable identity in the journal.
	MTA  string
	Test string
}

// Key returns the task's durable identity.
func (t Task) Key() Key { return Key{MTA: t.MTA, Test: t.Test} }

// TaskFunc executes one attempt of a task. A nil return marks the
// task done; non-nil returns are classified (see Class) into transient
// failures that are retried, terminal failures that are not, and
// aborts (context cancellation) that leave the task unfinished for a
// later resume.
type TaskFunc func(ctx context.Context, t Task) error

// Config parameterizes a campaign.
type Config struct {
	// Workers caps concurrent attempts across all shards. Default 32.
	Workers int
	// ShardRate is the attempt budget per shard in attempts/second: a
	// fresh shard is probed at once, and each further attempt starts
	// at least 1/ShardRate after the one before. Zero means unlimited.
	ShardRate float64
	// MaxAttempts bounds attempts per task, first try included.
	// Default 4.
	MaxAttempts int
	// Seed drives retry jitter: the delay before a retry is a
	// function of (Seed, MTA, test, attempt) alone (see backoff).
	Seed int64
	// Journal, when set, receives the append-only JSONL record of
	// attempt outcomes. Each event is written as one line as the
	// attempt ends, so a crash loses at most the event in flight. Use
	// the Journal returned by OpenJournal for a checksummed, crash-
	// recoverable record.
	Journal io.Writer
	// Tracer, when non-nil, opens one root span per attempt
	// ("campaign.task") carrying the (MTA, test, attempt) attribution;
	// the TaskFunc's probes hang their spans off it via the context.
	Tracer *trace.Tracer
}

func (cfg *Config) fillDefaults() {
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
}

// The retry schedule: the first retry waits backoffBase, each further
// one twice the last, capped at backoffMax (before jitter).
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 10 * time.Second
)

// State is a task's final outcome, as a journal replay reports it.
type State string

// Final task states.
const (
	StateDone   State = "done"
	StateFailed State = "failed"
)

// Campaign is a durable, rate-limited run over a set of tasks.
type Campaign struct {
	cfg Config
	run TaskFunc
	// pace is 1/ShardRate, the least gap between the starts of one
	// shard's attempts; zero when ShardRate is unlimited.
	pace time.Duration

	mu     sync.Mutex
	shards map[string]*shard
	order  []string // shard round-robin order (insertion order)
	rrNext int
	tasks  map[Key]int // attempts started per task

	// counters (guarded by mu)
	total    int
	done     int
	failed   int
	inflight int
	retried  int
	attempts int
	started  time.Time

	// the journal's state (guarded by mu; see journal): jbuf is the
	// reused line buffer, jerr the first write failure, jdrops the
	// events lost from it on.
	jbuf   []byte
	jerr   error
	jdrops int

	// changed is closed, and dropped, when an attempt ends: the
	// broadcast that wakes idle workers. The first worker to idle
	// after the last broadcast makes it.
	changed chan struct{}
}

// New builds an empty campaign; Add queues work and Run executes it.
func New(cfg Config, run TaskFunc) *Campaign {
	cfg.fillDefaults()
	var pace time.Duration
	if cfg.ShardRate > 0 {
		pace = time.Duration(float64(time.Second) / cfg.ShardRate)
	}
	return &Campaign{
		cfg:    cfg,
		run:    run,
		pace:   pace,
		shards: make(map[string]*shard),
		tasks:  make(map[Key]int),
	}
}

// Add enqueues tasks. Tasks whose Key is already known are ignored, so
// re-adding the full task set after a Resume is harmless. Add may not
// be called concurrently with Run.
func (c *Campaign) Add(tasks ...Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range tasks {
		k := t.Key()
		if _, dup := c.tasks[k]; dup {
			continue
		}
		c.tasks[k] = 0
		c.total++
		c.shardFor(t.MTA).push(t, time.Time{})
	}
}

// shardFor returns (creating on first use) the named shard.
// Caller holds mu.
func (c *Campaign) shardFor(name string) *shard {
	s, ok := c.shards[name]
	if !ok {
		s = &shard{}
		c.shards[name] = s
		c.order = append(c.order, name)
	}
	return s
}

// Run executes the campaign until every task reaches a final state or
// ctx is cancelled. Workers goroutines each take the next dispatchable
// task (nextLocked's round robin) and run its attempt, so Inflight
// never exceeds Workers; a worker with nothing dispatchable waits for
// an attempt to end, a rate or retry window to open, or cancellation.
// On cancellation, in-flight attempts are given the cancelled context
// (a context-aware TaskFunc returns within one protocol step), their
// outcomes are journaled if they completed, and Run returns ctx.Err();
// everything unfinished stays pending in the journal for a later
// Resume.
func (c *Campaign) Run(ctx context.Context) error {
	if c.run == nil {
		return errors.New("campaign: no TaskFunc configured")
	}
	c.mu.Lock()
	if c.started.IsZero() {
		c.started = time.Now()
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for range c.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.work(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// work is one worker's loop. It checks ctx before every dispatch: an
// attempt the cancellation voided is pushed back pending, and at once
// dispatchable again.
func (c *Campaign) work(ctx context.Context) {
	var timer *time.Timer // one per worker, re-armed for each timed wait
	for ctx.Err() == nil {
		c.mu.Lock()
		if c.done+c.failed == c.total {
			c.mu.Unlock()
			return
		}
		task, ready, wait := c.nextLocked(time.Now())
		if ready {
			c.mu.Unlock()
			c.attempt(ctx, task)
			continue
		}
		if c.changed == nil {
			c.changed = make(chan struct{})
		}
		changed := c.changed
		c.mu.Unlock()

		var timerC <-chan time.Time
		if wait > 0 {
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			timerC = timer.C
		}
		select {
		case <-changed:
		case <-timerC:
		case <-ctx.Done():
		}
	}
}

// nextLocked scans shards round-robin for a dispatchable task: the
// shard has queued eligible work, no attempt in flight, and its pace
// (next) has come. When nothing is dispatchable it returns the
// shortest wait until a pace or retry window opens (0 = no timed
// window; wait for an attempt to end alone). Caller holds mu.
func (c *Campaign) nextLocked(now time.Time) (Task, bool, time.Duration) {
	minWait := time.Duration(0)
	consider := func(d time.Duration) {
		if d <= 0 {
			return
		}
		if minWait == 0 || d < minWait {
			minWait = d
		}
	}
	n := len(c.order)
	for i := 0; i < n; i++ {
		s := c.shards[c.order[(c.rrNext+i)%n]]
		if s.inflight || len(s.queue) == 0 {
			continue
		}
		if s.next.After(now) {
			consider(s.next.Sub(now))
			continue
		}
		idx, notBefore := s.eligible(now)
		if idx < 0 {
			consider(notBefore.Sub(now))
			continue
		}
		task := s.pop(idx)
		s.next = now.Add(c.pace)
		s.inflight = true
		c.inflight++
		c.rrNext = (c.rrNext + i + 1) % n
		return task, true, 0
	}
	return Task{}, false, minWait
}

// attempt runs one attempt and applies the outcome.
func (c *Campaign) attempt(ctx context.Context, t Task) {
	k := t.Key()
	c.mu.Lock()
	c.tasks[k]++
	c.attempts++
	n := c.tasks[k]
	c.mu.Unlock()

	tctx, sp := c.cfg.Tracer.Start(ctx, "campaign.task")
	if sp != nil {
		sp.SetAttr("mta", t.MTA)
		sp.SetAttr("test", t.Test)
		sp.SetInt("attempt", int64(n))
	}
	err := c.run(tctx, t)
	class := DefaultClassify(err)
	if sp != nil {
		sp.SetAttr("class", class.String())
		sp.SetError(err)
		sp.End()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards[t.MTA]
	s.inflight = false
	c.inflight--
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}

	switch class {
	case Done:
		c.done++
		c.journal(event{Ev: evDone, Key: k, N: n})
	case Terminal:
		c.failed++
		c.journal(event{Ev: evFailed, Key: k, N: n, Err: errString(err)})
	case Transient:
		if n >= c.cfg.MaxAttempts {
			c.failed++
			c.journal(event{Ev: evFailed, Key: k, N: n, Err: errString(err)})
			break
		}
		delay := c.backoff(k, n)
		c.retried++
		c.journal(event{Ev: evRetry, Key: k, N: n, Err: errString(err), DelayMS: delay.Milliseconds()})
		s.push(t, time.Now().Add(delay))
	case Aborted:
		// Cancellation voided the attempt: it neither consumed budget
		// nor produced an outcome. The task stays pending (and
		// unfinished in the journal) for a resumed run.
		c.tasks[k]--
		c.attempts--
		s.pushFront(t, time.Time{})
	}
}

// backoff computes the delay before retry n+1 of task k: exponential
// growth from backoffBase capped at backoffMax, with jitter in
// [delay/2, delay] so synchronized failures (one dead destination,
// many queued tests) don't retry in lockstep. The jitter is drawn from
// a generator seeded by (Seed, MTA, test, attempt), so a task's retry
// schedule does not depend on the order in which attempts end.
func (c *Campaign) backoff(k Key, attempt int) time.Duration {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	half := d / 2
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d", k.MTA, k.Test, attempt)
	r := rand.New(rand.NewPCG(uint64(c.cfg.Seed), h.Sum64()))
	return half + time.Duration(r.Int64N(int64(half)+1))
}

// JournalError returns the first journal write failure, nil while the
// durable record is healthy. Once non-nil, the campaign has kept
// running but its journal stopped growing at that point — a resume
// from it would re-run everything recorded only after the failure.
func (c *Campaign) JournalError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jerr
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

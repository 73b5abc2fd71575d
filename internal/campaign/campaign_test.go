package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sendervalid/internal/netsim"
	"sendervalid/internal/smtp"
)

func errConnRefusedForTest() error { return netsim.ErrConnRefused }

// tasksFor builds the full (MTA, test) cross product.
func tasksFor(mtas, tests int) []Task {
	out := make([]Task, 0, mtas*tests)
	for m := 0; m < mtas; m++ {
		for t := 0; t < tests; t++ {
			out = append(out, Task{MTA: fmt.Sprintf("m%03d", m), Test: fmt.Sprintf("t%02d", t)})
		}
	}
	return out
}

func TestCampaignRunsEveryTaskOnce(t *testing.T) {
	var mu sync.Mutex
	ran := make(map[Key]int)
	c := New(Config{Workers: 8}, func(ctx context.Context, task Task) error {
		mu.Lock()
		ran[task.Key()]++
		mu.Unlock()
		return nil
	})
	tasks := tasksFor(10, 4)
	c.Add(tasks...)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(tasks) {
		t.Fatalf("ran %d distinct tasks, want %d", len(ran), len(tasks))
	}
	for k, n := range ran {
		if n != 1 {
			t.Errorf("task %v ran %d times", k, n)
		}
	}
	s := c.Snapshot()
	if s.Done != len(tasks) || s.Failed != 0 || s.Queued != 0 || s.Inflight != 0 {
		t.Errorf("snapshot after run: %+v", s)
	}
}

func TestShardNeverProbedConcurrently(t *testing.T) {
	var mu sync.Mutex
	active := make(map[string]int)
	maxActive := make(map[string]int)
	c := New(Config{Workers: 16}, func(ctx context.Context, task Task) error {
		mu.Lock()
		active[task.MTA]++
		if active[task.MTA] > maxActive[task.MTA] {
			maxActive[task.MTA] = active[task.MTA]
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		active[task.MTA]--
		mu.Unlock()
		return nil
	})
	c.Add(tasksFor(4, 12)...)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for mta, n := range maxActive {
		if n > 1 {
			t.Errorf("shard %s saw %d concurrent attempts", mta, n)
		}
	}
}

func TestTransientRetryWithBudget(t *testing.T) {
	transient := &smtp.Error{Code: 421, Message: "greylisted, try again"}
	var mu sync.Mutex
	attempts := make(map[Key]int)
	c := New(Config{Workers: 4, MaxAttempts: 3}, func(ctx context.Context, task Task) error {
		mu.Lock()
		attempts[task.Key()]++
		n := attempts[task.Key()]
		mu.Unlock()
		switch task.MTA {
		case "m000": // succeeds on the 2nd attempt
			if n < 2 {
				return transient
			}
			return nil
		case "m001": // transient forever: must exhaust the budget
			return transient
		case "m002": // terminal: must not be retried
			return &smtp.Error{Code: 554, Message: "no"}
		}
		return nil
	})
	c.Add(Task{MTA: "m000", Test: "t01"}, Task{MTA: "m001", Test: "t01"},
		Task{MTA: "m002", Test: "t01"}, Task{MTA: "m003", Test: "t01"})
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := attempts[Key{"m000", "t01"}]; got != 2 {
		t.Errorf("recovering task: %d attempts, want 2", got)
	}
	if got := attempts[Key{"m001", "t01"}]; got != 3 {
		t.Errorf("always-transient task: %d attempts, want budget of 3", got)
	}
	if got := attempts[Key{"m002", "t01"}]; got != 1 {
		t.Errorf("terminal task retried: %d attempts, want 1", got)
	}
	s := c.Snapshot()
	if s.Done != 2 || s.Failed != 2 {
		t.Errorf("done %d failed %d, want 2/2", s.Done, s.Failed)
	}
	if s.Retried != 3 { // m000 once + m001 twice
		t.Errorf("retried %d, want 3", s.Retried)
	}
}

// TestResumeAfterCancel is the crash/resume acceptance criterion: a
// campaign cancelled mid-run and restarted from its journal finishes
// every (MTA, test) pair exactly once, with replay re-enqueueing only
// unfinished work.
func TestResumeAfterCancel(t *testing.T) {
	tasks := tasksFor(12, 4)
	var journal bytes.Buffer

	// Phase 1: cancel deterministically once exactly half the tasks
	// succeed. The half-th success triggers cancel from inside runFn;
	// any task reaching the gate afterwards blocks until the context
	// dies and returns its error, which DefaultClassify maps to
	// Aborted — a voided attempt that stays pending for the resumed
	// run.
	ctx, cancel := context.WithCancel(context.Background())
	half := len(tasks) / 2

	var mu sync.Mutex
	gated := true
	completions := make(map[Key]int) // successful-outcome count per task

	runFn := func(ctx context.Context, task Task) error {
		mu.Lock()
		if gated && len(completions) >= half {
			mu.Unlock()
			<-ctx.Done()
			return ctx.Err()
		}
		completions[task.Key()]++
		if len(completions) == half {
			cancel()
		}
		mu.Unlock()
		return nil
	}

	c1 := New(Config{Workers: 3, Journal: &journal}, runFn)
	c1.Add(tasks...)
	if err := c1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	firstDone := c1.Snapshot().Done
	if firstDone == 0 || firstDone == len(tasks) {
		t.Fatalf("cancellation did not land mid-run: %d of %d done", firstDone, len(tasks))
	}

	// Phase 2: replay the journal, re-enqueue only unfinished pairs.
	replay, err := ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Done() != firstDone {
		t.Errorf("replay sees %d done, first run reported %d", replay.Done(), firstDone)
	}
	remaining := replay.Unfinished(tasks)
	if len(remaining) != len(tasks)-firstDone {
		t.Errorf("replay re-enqueues %d tasks, want %d", len(remaining), len(tasks)-firstDone)
	}
	for _, task := range remaining {
		if n := completions[task.Key()]; n != 0 {
			t.Errorf("task %v completed %d times yet re-enqueued", task.Key(), n)
		}
	}

	mu.Lock()
	gated = false // phase 2 runs the leftover tasks to completion
	mu.Unlock()
	c2 := New(Config{Workers: 3, Journal: &journal}, runFn)
	c2.Add(remaining...)
	if err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every pair completed exactly once across both runs.
	if len(completions) != len(tasks) {
		t.Fatalf("completed %d distinct tasks, want %d", len(completions), len(tasks))
	}
	for k, n := range completions {
		if n != 1 {
			t.Errorf("task %v completed %d times", k, n)
		}
	}

	// The concatenated journal agrees: one final state per pair.
	full, err := ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Final) != len(tasks) {
		t.Errorf("journal records %d finished tasks, want %d", len(full.Final), len(tasks))
	}
}

// TestPerShardRateLimit is the rate-limiting acceptance criterion: no
// shard exceeds its budget in any window while aggregate
// throughput across shards exceeds any single shard's rate.
func TestPerShardRateLimit(t *testing.T) {
	const (
		shards        = 4
		tasksPerShard = 8
		rate          = 40.0 // attempts/sec/shard
	)
	var mu sync.Mutex
	grants := make(map[string][]time.Time)
	c := New(Config{
		Workers:   16,
		ShardRate: rate,
	}, func(ctx context.Context, task Task) error {
		mu.Lock()
		grants[task.MTA] = append(grants[task.MTA], time.Now())
		mu.Unlock()
		return nil
	})
	c.Add(tasksFor(shards, tasksPerShard)...)
	start := time.Now()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Per shard: consecutive grants may never be closer than 1/rate
	// (20% slack for timestamping skew).
	minGap := time.Duration(0.8 / rate * float64(time.Second))
	for shard, times := range grants {
		if len(times) != tasksPerShard {
			t.Fatalf("shard %s got %d attempts, want %d", shard, len(times), tasksPerShard)
		}
		for i := 1; i < len(times); i++ {
			if gap := times[i].Sub(times[i-1]); gap < minGap {
				t.Errorf("shard %s: grants %d and %d only %v apart (budget %v)",
					shard, i-1, i, gap, minGap)
			}
		}
	}

	// Aggregate: all shards pace concurrently, so total throughput
	// must exceed what a single shard's budget allows.
	total := shards * tasksPerShard
	aggregate := float64(total) / elapsed.Seconds()
	if aggregate <= rate {
		t.Errorf("aggregate throughput %.1f/s does not exceed single-shard rate %.1f/s", aggregate, rate)
	}
	// And each shard alone must have respected its budget overall.
	perShard := float64(tasksPerShard-1) / elapsed.Seconds()
	if perShard > rate*1.2 {
		t.Errorf("per-shard throughput %.1f/s exceeds rate %.1f/s", perShard, rate)
	}
}

// TestShardPaceDeterministic drives nextLocked at fixed instants: a
// fresh shard dispatches at once, a second attempt at the same instant
// is refused with a wait of exactly 1/rate and dispatches at t0 +
// 1/rate, and at rate 0 nothing ever waits.
func TestShardPaceDeterministic(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// next dispatches from c at now and ends the attempt at once, so
	// only the pace can hold the shard back.
	next := func(c *Campaign, now time.Time) (bool, time.Duration) {
		task, ready, wait := c.nextLocked(now)
		if ready {
			c.shards[task.MTA].inflight = false
			c.inflight--
		}
		return ready, wait
	}

	c := New(Config{ShardRate: 2}, nil) // 2 attempts/sec: 500 ms apart
	c.Add(tasksFor(1, 3)...)
	if ready, _ := next(c, t0); !ready {
		t.Fatal("fresh shard refused")
	}
	ready, wait := next(c, t0)
	if ready {
		t.Fatal("shard dispatched twice at the same instant")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms", wait)
	}
	if ready, _ := next(c, t0.Add(499*time.Millisecond)); ready {
		t.Fatal("dispatched before 1/rate had passed")
	}
	if ready, _ := next(c, t0.Add(500*time.Millisecond)); !ready {
		t.Fatal("refused at t0 + 1/rate")
	}

	unlimited := New(Config{}, nil)
	unlimited.Add(tasksFor(1, 100)...)
	for i := 0; i < 100; i++ {
		if ready, wait := next(unlimited, t0); !ready || wait != 0 {
			t.Fatalf("rate 0: attempt %d refused (wait %v)", i, wait)
		}
	}
}

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Done},
		{context.Canceled, Aborted},
		{context.DeadlineExceeded, Aborted},
		{&smtp.Error{Code: 421, Message: "try later"}, Transient},
		{&smtp.Error{Code: 450, Message: "greylisted"}, Transient},
		{&smtp.Error{Code: 550, Message: "no such user"}, Terminal},
		{&smtp.Error{Code: 554, Message: "blacklisted"}, Terminal},
		{fmt.Errorf("dial: %w", errConnRefusedForTest()), Transient},
		{fmt.Errorf("dial 203.0.113.9:25: %w", netsim.ErrLinkDown), Transient},
		{&net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}, Transient},
		{fmt.Errorf("smtp: read: %w", netsim.ErrConnReset), Transient},
		{errors.New("malformed address"), Terminal},
	}
	for _, tc := range cases {
		if got := DefaultClassify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestRetryDelayIsPerTask pins that a retry's delay is a function of
// (Seed, MTA, test, attempt): two runs with one seed whose failed
// attempts end in different orders journal the same delay_ms for every
// retry. The first run takes its tasks one at a time, in insertion
// order; the second holds m000's first attempt back until every other
// task has journaled its retry.
func TestRetryDelayIsPerTask(t *testing.T) {
	tasks := tasksFor(4, 1)
	run := func(workers int, hold chan struct{}) map[string]int64 {
		var mu sync.Mutex
		attempts := make(map[Key]int)
		j := &retryWatch{left: len(tasks) - 1, release: hold}
		c := New(Config{Workers: workers, MaxAttempts: 2, Seed: 5, Journal: j}, func(ctx context.Context, task Task) error {
			mu.Lock()
			attempts[task.Key()]++
			n := attempts[task.Key()]
			mu.Unlock()
			if n > 1 {
				return nil
			}
			if hold != nil && task.MTA == "m000" {
				<-hold
			}
			return &smtp.Error{Code: 451, Message: "try again later"}
		})
		c.Add(tasks...)
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if s := c.Snapshot(); s.Done != len(tasks) || s.Retried != len(tasks) {
			t.Fatalf("run with %d workers: %s, want every task done after one retry", workers, s)
		}
		// The journal records outcomes only: one line per retry and one
		// per finished task, and nothing when an attempt starts.
		s := c.Snapshot()
		lines := strings.Split(strings.TrimSpace(j.buf.String()), "\n")
		if want := s.Completed() + s.Retried; len(lines) != want {
			t.Fatalf("run with %d workers journaled %d lines, want %d (finished tasks + retries)", workers, len(lines), want)
		}
		delays := make(map[string]int64)
		for _, line := range lines {
			var e event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatal(err)
			}
			switch e.Ev {
			case evRetry:
				delays[fmt.Sprintf("%s/%s#%d", e.Key.MTA, e.Key.Test, e.N)] = e.DelayMS
			case evDone, evFailed:
			default:
				t.Fatalf("journal holds a %q event: %s", e.Ev, line)
			}
		}
		return delays
	}
	inOrder := run(1, nil)
	heldBack := run(len(tasks), make(chan struct{}))
	if len(inOrder) != len(tasks) {
		t.Fatalf("journaled %d retries, want %d", len(inOrder), len(tasks))
	}
	for k, d := range inOrder {
		if d < 50 || d > 100 {
			t.Errorf("%s: first retry after %d ms, want within [50, 100]", k, d)
		}
		if heldBack[k] != d {
			t.Errorf("%s: retry delay %d ms in one run, %d ms in the other", k, d, heldBack[k])
		}
	}
}

// retryWatch is a journal sink that closes release once left retry
// events have been written.
type retryWatch struct {
	buf     bytes.Buffer
	left    int
	release chan struct{}
}

func (w *retryWatch) Write(p []byte) (int, error) {
	if w.release != nil && bytes.Contains(p, []byte(`"ev":"retry"`)) {
		if w.left--; w.left == 0 {
			close(w.release)
		}
	}
	return w.buf.Write(p)
}

func TestAddIsIdempotentPerKey(t *testing.T) {
	c := New(Config{Workers: 2}, func(ctx context.Context, task Task) error { return nil })
	task := Task{MTA: "m0", Test: "t1"}
	c.Add(task, task)
	c.Add(task)
	if got := c.Snapshot().Total; got != 1 {
		t.Fatalf("duplicate Add produced %d tasks, want 1", got)
	}
}

func TestJournalTornTailLine(t *testing.T) {
	// Simulate a crash mid-write: truncate the final line.
	torn := legacyJournal[:len(legacyJournal)-9]
	rp, err := ReadJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must replay cleanly: %v", err)
	}
	if rp.Final[Key{"m0", "t1"}] != StateDone {
		t.Errorf("finished task lost in torn replay: %+v", rp.Final)
	}
	if _, finished := rp.Final[Key{"m1", "t1"}]; finished {
		t.Error("torn task counted as finished")
	}
	if rp.Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", rp.Malformed)
	}

	// A file with data but no valid events is not a journal.
	if _, err := ReadJournal(strings.NewReader("not a journal\nat all\n")); err == nil {
		t.Error("non-journal input accepted")
	}
}

func TestResumeTerminatesTornTail(t *testing.T) {
	// Crash → resume → crash again, the first crash tearing the last
	// frame: the first resume's own events must not merge with the
	// fragment, or the second resume cannot replay the journal.
	path := filepath.Join(t.TempDir(), "camp.jsonl")
	_, jf0, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeLines(t, jf0, legacyJournal)
	if err := jf0.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	rp, jf, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if rp.Final[Key{"m0", "t1"}] != StateDone || !rp.TornTail || rp.Events != 3 {
		t.Fatalf("first resume: %+v; want m0/t1 done, the torn m1/t1 enqueue dropped and reported", rp)
	}
	// The resumed run's first outcome is a retry of m1/t1; the second
	// crash comes before m1/t1 finishes.
	writeLines(t, jf, `{"t":"2026-01-01T00:00:02Z","ev":"retry","k":{"mta":"m1","test":"t1"},"n":1,"err":"try again later","delay_ms":75}`+"\n")
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	rp2, jf2, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatalf("second resume after the torn line: %v", err)
	}
	defer jf2.Close()
	if rp2.Malformed != 0 || rp2.TornTail {
		t.Errorf("Malformed = %d, TornTail = %v; the first resume truncated the fragment away", rp2.Malformed, rp2.TornTail)
	}
	if rp2.Final[Key{"m0", "t1"}] != StateDone {
		t.Errorf("finished task lost on second replay: %+v", rp2.Final)
	}
	if rp2.Events != 4 {
		t.Errorf("replayed %d events, want 4: the post-resume retry was lost", rp2.Events)
	}
	if _, finished := rp2.Final[Key{"m1", "t1"}]; finished {
		t.Error("unfinished task counted as finished")
	}
}

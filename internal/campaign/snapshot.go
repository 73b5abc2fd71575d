package campaign

import (
	"fmt"
	"time"
)

// Snapshot is a consistent point-in-time view of a campaign's
// progress, cheap enough to poll for periodic reporting.
type Snapshot struct {
	// Total is every task ever added.
	Total int
	// Queued tasks are waiting for dispatch (including retries whose
	// backoff window is still open, counted again in WaitingRetry).
	Queued int
	// Inflight attempts are executing right now.
	Inflight int
	// WaitingRetry tasks are queued but inside a backoff window.
	WaitingRetry int
	// Done and Failed are final states.
	Done   int
	Failed int
	// Attempts counts every attempt started; Retried counts attempts
	// that ended in a transient failure and were rescheduled.
	Attempts int
	Retried  int
	// Elapsed is the time since Run started (zero before Run).
	Elapsed time.Duration
	// Rate is completed tasks (done + failed) per second of Elapsed.
	Rate float64
	// JournalErr is the first journal write failure ("" while the
	// durable record is healthy) and JournalDropped counts the events
	// lost after it — the campaign keeps running, but a resume from
	// this journal would re-run everything after the failure point.
	JournalErr     string
	JournalDropped int
}

// Completed counts tasks in a final state.
func (s Snapshot) Completed() int { return s.Done + s.Failed }

// String renders a one-line progress report. A failed journal is
// appended so the operator watching the progress ticker cannot miss
// that durability stopped.
func (s Snapshot) String() string {
	line := fmt.Sprintf(
		"[%7.1fs] queued %d (retry-wait %d) inflight %d done %d failed %d retried %d attempts %d rate %.1f/s",
		s.Elapsed.Seconds(), s.Queued, s.WaitingRetry, s.Inflight,
		s.Done, s.Failed, s.Retried, s.Attempts, s.Rate)
	if s.JournalErr != "" {
		line += fmt.Sprintf(" JOURNAL-FAILED (%d events dropped: %s)", s.JournalDropped, s.JournalErr)
	}
	return line
}

// Snapshot captures the campaign's live counters. Safe to call from
// any goroutine, including while Run executes.
func (c *Campaign) Snapshot() Snapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Total:    c.total,
		Inflight: c.inflight,
		Done:     c.done,
		Failed:   c.failed,
		Attempts: c.attempts,
		Retried:  c.retried,
	}
	s.Queued = c.total - c.done - c.failed - c.inflight
	for _, sh := range c.shards {
		s.WaitingRetry += sh.waitingRetry(now)
	}
	if c.jerr != nil {
		s.JournalErr = c.jerr.Error()
		s.JournalDropped = c.jdrops
	}
	if !c.started.IsZero() {
		s.Elapsed = now.Sub(c.started)
		if secs := s.Elapsed.Seconds(); secs > 0 {
			s.Rate = float64(s.Completed()) / secs
		}
	}
	return s
}

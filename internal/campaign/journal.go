package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sendervalid/internal/jsonwire"
)

// The journal is the campaign's durability mechanism: an append-only
// JSON-lines file of attempt outcomes, one event per line, written as
// each attempt ends. A crash loses at most the line in flight;
// replaying the surviving prefix reconstructs exactly which (MTA, test)
// pairs reached a final state, so a resumed campaign re-enqueues only
// unfinished work. The task set itself is never journaled: it is a
// function of the world's spec and seed, rebuilt by every run.

// Journal event kinds. A journal records outcomes only: a retry, and
// the final done or failed. Older journals also hold "enqueue" and
// "attempt" lines; replay counts them as events and reads nothing else
// from them, so those journals still resume.
const (
	evRetry  = "retry"
	evDone   = "done"
	evFailed = "failed"
)

// event is one JSONL journal line.
type event struct {
	Time time.Time `json:"t"`
	Ev   string    `json:"ev"`
	Key  Key       `json:"k"`
	// N is the attempt number.
	N int `json:"n,omitempty"`
	// Err carries the failure text on retry/failed events.
	Err string `json:"err,omitempty"`
	// DelayMS is the backoff chosen for a retry.
	DelayMS int64 `json:"delay_ms,omitempty"`
}

// journal appends one event line to cfg.Journal, encoded into the
// campaign's one reused buffer. A nil Journal makes it a no-op, so
// journaling is strictly opt-in. A write failure must not take the
// campaign down with it (the measurement continues), but it is never
// silent: the first error sticks, writing stops (a dead disk should not
// be hammered per event), and the failed event and every one after it
// are counted in jdrops, for Snapshot, JournalError and the metrics to
// surface. Caller holds mu.
func (c *Campaign) journal(e event) {
	if c.cfg.Journal == nil {
		return
	}
	if c.jerr != nil {
		c.jdrops++
		return
	}
	e.Time = time.Now()
	c.jbuf = appendEventJSON(c.jbuf[:0], &e)
	if _, err := c.cfg.Journal.Write(c.jbuf); err != nil {
		c.jerr = err
		c.jdrops++
	}
}

// Replay is the durable state recovered from a journal.
type Replay struct {
	// Final maps every task that reached a final state to it
	// (StateDone or StateFailed).
	Final map[Key]State
	// Events counts journal lines replayed.
	Events int
	// Malformed counts unparseable lines skipped during replay — torn
	// writes from crashes (one can remain mid-file after each
	// crash-and-resume cycle).
	Malformed int
	// TornTail reports that a journal segment ended in crash debris;
	// the valid prefix above was salvaged. In the live segment the
	// debris is truncated away.
	TornTail bool
	// DroppedBytes is the size of the torn/corrupt frame tails skipped
	// across all segments of the journal, rotated ones included.
	DroppedBytes int64
}

func newReplay() *Replay { return &Replay{Final: make(map[Key]State)} }

// Done and Failed count tasks per final state.
func (r *Replay) Done() int   { return r.count(StateDone) }
func (r *Replay) Failed() int { return r.count(StateFailed) }

func (r *Replay) count(s State) int {
	n := 0
	for _, st := range r.Final {
		if st == s {
			n++
		}
	}
	return n
}

// Unfinished filters tasks down to those the journal does not record
// as finished — the work a resumed campaign must still run.
func (r *Replay) Unfinished(tasks []Task) []Task {
	out := make([]Task, 0, len(tasks))
	for _, t := range tasks {
		if _, finished := r.Final[t.Key()]; !finished {
			out = append(out, t)
		}
	}
	return out
}

// Admit applies the one journal-reuse policy to the replay of the
// journal just opened at path. Crash debris salvaged across is reported
// through logf either way. With resume the replay is returned, ready to
// prune finished pairs (Unfinished); without it a journal that already
// holds events is refused — two fresh runs must never interleave in one
// record — and an empty one admits the run with nothing to prune (nil).
// A journal records outcomes only, so one whose run was cut before any
// attempt ended holds no events, and a fresh run may take it.
func (r *Replay) Admit(path string, resume bool, logf func(format string, args ...any)) (*Replay, error) {
	if r.TornTail {
		logf("journal %s had a torn tail (%d bytes dropped, %d malformed lines); valid prefix salvaged",
			path, r.DroppedBytes, r.Malformed)
	}
	switch {
	case resume:
		return r, nil
	case r.Events > 0:
		return nil, fmt.Errorf("journal %s already has %d events; pass -resume to continue it", path, r.Events)
	}
	return nil, nil
}

// ReadJournal replays a JSONL journal stream. Unparseable lines are
// torn crash-time writes: the classic artifact is a truncated final
// line, but after a crash-and-resume cycle one terminated fragment can
// also sit mid-file. Both are skipped (and counted in Malformed); a
// stream with data but no valid events at all is rejected as not a
// journal.
func ReadJournal(r io.Reader) (*Replay, error) {
	rp := newReplay()
	// LineReader, not bufio.Scanner: one oversized garbage line must be
	// one more Malformed line, not a failed resume. It also drops a CR
	// before the newline, for tooling that rewrote the file.
	lr := jsonwire.NewLineReader(r)
	for lr.Next() {
		line := lr.Bytes()
		if len(line) == 0 {
			continue
		}
		var e event
		if err := json.Unmarshal(line, &e); err != nil {
			rp.Malformed++
			continue
		}
		rp.Events++
		switch e.Ev {
		case evDone:
			rp.Final[e.Key] = StateDone
		case evFailed:
			rp.Final[e.Key] = StateFailed
		}
	}
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	if rp.Events == 0 && rp.Malformed > 0 {
		return nil, fmt.Errorf("campaign: no valid events in %d lines: not a journal", rp.Malformed)
	}
	return rp, nil
}

package campaign

import (
	"errors"
	"fmt"
	"io"
	"os"

	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

// This file puts the campaign journal on the write-ahead log. The
// journal's payload stays the same JSONL event lines (journalcodec.go),
// but each line is framed as one checksummed WAL record, so a crash
// mid-write is detected and truncated at recovery instead of leaving a
// torn fragment for the replay parser to stumble over, and an fsync
// policy chooses how much a machine crash may cost.

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Sync is the fsync policy for the journal's WAL. Default SyncNone.
	Sync wal.SyncPolicy
	// RotateBytes rotates the journal at this live-segment size; zero
	// (the default) keeps one segment — campaign journals are small
	// next to query logs.
	RotateBytes int64
}

// Journal is the append side of a durable campaign record, as handed
// to Config.Journal: one event line per Write. Err surfaces the sink's
// sticky failure and Check adapts it to a telemetry health check so a
// wedged journal flips /healthz. *wal.WAL is the implementation.
type Journal interface {
	io.Writer
	io.Closer
	// Err returns the sink's sticky write failure, nil while healthy.
	Err() error
	// Check is Err in telemetry.Health check form.
	Check() error
	// RegisterMetrics publishes the sink's durability instruments.
	RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label)
}

// OpenJournal replays the journal at path — every segment, through
// wal.OpenStream — and opens its write-ahead log for appending, so a
// restarted campaign continues the same durable record:
//
//	replay, jnl, err := campaign.OpenJournal(path, campaign.JournalOptions{})
//	...
//	c := campaign.New(campaign.Config{Journal: jnl, ...}, run)
//	c.Add(replay.Unfinished(allTasks)...)
//
// A missing file is not an error: the replay is empty and the journal
// is created, so first runs and resumed runs share one code path.
// Recovery truncates a torn or corrupt tail off the live segment; what
// was salvaged and what was dropped, in any segment, is reported
// through the Replay.
//
// Nothing appends to an unframed file: a non-empty file at path that
// does not start with a frame is refused with wal.ErrNotWAL, untouched.
func OpenJournal(path string, o JournalOptions) (*Replay, Journal, error) {
	// Replay first, read-only: a file without one valid event is
	// rejected before recovery has truncated anything.
	replay := newReplay()
	var stats wal.RecoverStats
	switch s, err := wal.OpenStream(path); {
	case err == nil:
		replay, err = ReadJournal(s)
		stats = s.Stats()
		s.Close()
		if err != nil {
			return nil, nil, err
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	replay.TornTail = stats.Truncated
	replay.DroppedBytes = stats.DroppedBytes

	w, err := wal.Open(path, wal.Options{Sync: o.Sync, RotateBytes: o.RotateBytes})
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: opening WAL journal: %w", err)
	}
	return replay, w, nil
}

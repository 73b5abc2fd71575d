package campaign

import (
	"sendervalid/internal/telemetry"
)

// RegisterMetrics publishes the campaign's progress counters and the
// journal's drop count under the campaign_ namespace. They live under
// the campaign mutex (they are part of the scheduler's state, not
// hot-path instruments), so they are exported as funcs that take the
// lock per scrape — a scrape every few seconds against a lock held for
// microseconds.
func (c *Campaign) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.MustGaugeFunc("campaign_tasks",
		"Tasks enqueued in the campaign (lifetime, including finished).",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.total) }, labels...)
	reg.MustCounterFunc("campaign_tasks_done_total",
		"Tasks that completed successfully.",
		func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return uint64(c.done) }, labels...)
	reg.MustCounterFunc("campaign_tasks_failed_total",
		"Tasks that exhausted their attempt budget.",
		func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return uint64(c.failed) }, labels...)
	reg.MustCounterFunc("campaign_retries_total",
		"Attempts that failed and were rescheduled with backoff.",
		func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return uint64(c.retried) }, labels...)
	reg.MustCounterFunc("campaign_attempts_total",
		"Task attempts started (first tries plus retries).",
		func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return uint64(c.attempts) }, labels...)
	reg.MustGaugeFunc("campaign_probes_in_flight",
		"Task attempts currently executing.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.inflight) }, labels...)
	reg.MustCounterFunc("campaign_journal_dropped_total",
		"Journal events dropped after the first write failure (nonzero means the durable record is incomplete).",
		func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return uint64(c.jdrops) }, labels...)
}

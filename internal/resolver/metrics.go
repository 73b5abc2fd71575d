package resolver

import (
	"context"
	"errors"
	"net"
	"os"

	"sendervalid/internal/telemetry"
)

// resolverMetrics are the stub resolver's always-on instruments,
// incremented unconditionally on the query path and published only
// when RegisterMetrics attaches them to a registry.
type resolverMetrics struct {
	queries   telemetry.Counter // Exchange calls (cache hits included)
	cacheHits telemetry.Counter
	retries   telemetry.Counter // transport-level retry attempts
	timeouts  telemetry.Counter // attempts that failed with a deadline/timeout
	sfLeader  telemetry.Counter // flights led (wire exchanges performed)
	sfShared  telemetry.Counter // Exchange calls that joined an in-flight query

	// wireSeconds times actual wire exchanges, observed exactly once
	// per exchange by whoever performs it (the flight leader, or the
	// caller itself with the cache disabled). waitSeconds times how
	// long singleflight waiters spent blocked on another caller's
	// exchange. Keeping the two apart stops N deduplicated callers
	// from being attributed N wire latencies (the pre-split behaviour
	// a shared histogram would produce).
	wireSeconds *telemetry.Histogram
	waitSeconds *telemetry.Histogram
}

// observeWire records one wire exchange's latency, tagging the
// containing bucket with the exchanging span's trace when sampled.
func (m *resolverMetrics) observeWire(secs float64, traceID string) {
	if m.wireSeconds != nil {
		m.wireSeconds.ObserveExemplar(secs, traceID)
	}
}

// observeWait records one waiter's time blocked on a flight.
func (m *resolverMetrics) observeWait(secs float64, traceID string) {
	if m.waitSeconds != nil {
		m.waitSeconds.ObserveExemplar(secs, traceID)
	}
}

// isTimeout reports whether an exchange attempt failed on a deadline:
// a net.Error timeout or a context deadline. These are the errors the
// retry loop exists for, so they get their own counter.
func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded)
}

// RegisterMetrics publishes the resolver's families under the
// resolver_ namespace with the given constant labels (an experiment
// running several resolvers would label per upstream).
func (r *Resolver) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.MustCounter("resolver_queries_total",
		"Exchange calls, including ones answered from cache.",
		&r.metrics.queries, labels...)
	reg.MustCounter("resolver_cache_hits_total",
		"Exchange calls answered from the in-process cache.",
		&r.metrics.cacheHits, labels...)
	reg.MustCounter("resolver_retries_total",
		"Transport-level query retries after a retryable failure.",
		&r.metrics.retries, labels...)
	reg.MustCounter("resolver_timeouts_total",
		"Exchange attempts that failed on a timeout or deadline.",
		&r.metrics.timeouts, labels...)
	reg.MustCounter("resolver_singleflight_leader_total",
		"Singleflight flights led: deduplicated wire exchanges performed.",
		&r.metrics.sfLeader, labels...)
	reg.MustCounter("resolver_singleflight_shared_total",
		"Exchange calls that joined another caller's in-flight query instead of hitting the wire.",
		&r.metrics.sfShared, labels...)
	reg.MustHistogram("resolver_wire_seconds",
		"Wire exchange latency, one observation per exchange (leaders only — waiters never re-attribute it).",
		r.metrics.wireSeconds, labels...)
	reg.MustHistogram("resolver_wait_seconds",
		"Time singleflight waiters spent blocked on another caller's exchange.",
		r.metrics.waitSeconds, labels...)
	reg.MustGaugeFunc("resolver_cache_entries",
		"Entries currently held in the resolver cache.",
		func() float64 { return float64(r.CacheLen()) }, labels...)
}

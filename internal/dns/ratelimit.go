package dns

import (
	"net/netip"
	"sync"
	"time"
)

// RateLimiter is a per-source token-bucket limiter for query serving.
// Each source (client IP, ports ignored; a v4-mapped IPv6 address is
// its IPv4 address) gets its own bucket of burst tokens refilled at
// rate tokens/second; a query that finds the bucket empty is refused. The tracked-source table is bounded: when it
// fills, stale full buckets are swept, and if every bucket is active
// the table is reset wholesale — under that much source churn the
// limiter is being used as a DoS shield and fairness per source
// matters less than staying O(1) in memory.
type RateLimiter struct {
	rate  float64
	burst float64

	mu         sync.Mutex
	buckets    map[netip.Addr]*srcBucket
	maxSources int
}

type srcBucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter creates a limiter granting each source rate queries
// per second with the given burst. burst <= 0 defaults to 8.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if burst <= 0 {
		burst = 8
	}
	return &RateLimiter{
		rate:       rate,
		burst:      float64(burst),
		buckets:    make(map[netip.Addr]*srcBucket),
		maxSources: 8192,
	}
}

// Allow reports whether a query from source may be served at now,
// consuming one token when it may.
func (rl *RateLimiter) Allow(source netip.Addr, now time.Time) bool {
	source = source.Unmap()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[source]
	if !ok {
		if len(rl.buckets) >= rl.maxSources {
			rl.sweepLocked(now)
		}
		b = &srcBucket{tokens: rl.burst, last: now}
		rl.buckets[source] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * rl.rate
			if b.tokens > rl.burst {
				b.tokens = rl.burst
			}
			b.last = now
		}
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweepLocked evicts sources whose buckets have fully refilled (idle
// long enough to be indistinguishable from new). Caller holds mu.
func (rl *RateLimiter) sweepLocked(now time.Time) {
	for src, b := range rl.buckets {
		idle := now.Sub(b.last).Seconds()
		if b.tokens+idle*rl.rate >= rl.burst {
			delete(rl.buckets, src)
		}
	}
	if len(rl.buckets) >= rl.maxSources {
		// Every tracked source is mid-burst: an address-diverse flood.
		// Reset rather than grow without bound.
		rl.buckets = make(map[netip.Addr]*srcBucket)
	}
}

// Sources returns the number of tracked sources.
func (rl *RateLimiter) Sources() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.buckets)
}

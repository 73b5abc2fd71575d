package resolver

import (
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dns"
)

// cacheKey identifies one cached response, and one in-flight exchange.
type cacheKey struct {
	name string
	typ  dns.Type
}

// keyFor returns the key of (name, t). Its name is dns.CanonicalName's
// spelling without the trailing dot, so two names share a key exactly
// when their canonical forms are equal. A name with no upper-case
// ASCII letter — what every caller passes, with or without its
// trailing dot — is keyed by a substring of itself, with no copy.
func keyFor(name string, t dns.Type) cacheKey {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 'A' && c <= 'Z' {
			canon := dns.CanonicalName(name)
			return cacheKey{name: canon[:len(canon)-1], typ: t}
		}
	}
	return cacheKey{name: strings.TrimSuffix(name, "."), typ: t}
}

// cacheEntry is one cached response with its expiry.
type cacheEntry struct {
	msg     *dns.Message
	expires time.Time
}

// cache is the resolver's response cache: one map behind one RWMutex,
// holding at most capacity entries. Concurrent cache hits — the
// bulk-validation hot path — share the read lock. Expired entries are
// not reaped on read (that would need the write lock); an insert reaps
// them, expired-first, when the map is at capacity or has doubled since
// the last reap, so a cache that never fills still forgets what its
// TTLs say it should at an amortised constant cost per insert.
type cache struct {
	mu       sync.RWMutex
	entries  map[cacheKey]cacheEntry
	capacity int
	reapAt   int // entry count at which the next insert reaps
}

// minReap is the smallest map worth a reaping pass.
const minReap = 16

func newCache(maxEntries int) *cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &cache{entries: make(map[cacheKey]cacheEntry), capacity: maxEntries, reapAt: minReap}
}

// get returns the cached message for key if present and not expired.
// The hit path is allocation-free (pinned by TestExchangeHitPathAllocFree):
// a read lock, one map probe, and an expiry comparison outside the
// lock. Expired entries are reported as misses but left in place for
// the next insert-time reap.
func (c *cache) get(key cacheKey, now time.Time) (*dns.Message, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || now.After(e.expires) {
		return nil, false
	}
	return e.msg, true
}

// put stores msg under key, reaping first if the cache is full or due
// a sweep.
func (c *cache) put(key cacheKey, msg *dns.Message, expires time.Time) {
	c.mu.Lock()
	if n := len(c.entries); n >= c.capacity || n >= c.reapAt {
		if _, ok := c.entries[key]; !ok {
			c.reapLocked(time.Now())
		}
	}
	c.entries[key] = cacheEntry{msg: msg, expires: expires}
	c.mu.Unlock()
}

// reapLocked drops every expired entry and, if the map is still at
// capacity, frees room for one insert by dropping the live entry
// closest to expiry — the one whose loss costs the fewest future hits.
// The next sweep is due when the survivors have doubled.
func (c *cache) reapLocked(now time.Time) {
	var victim cacheKey
	var soonest time.Time
	for k, e := range c.entries {
		if now.After(e.expires) {
			delete(c.entries, k)
		} else if soonest.IsZero() || e.expires.Before(soonest) {
			victim, soonest = k, e.expires
		}
	}
	if len(c.entries) >= c.capacity {
		delete(c.entries, victim)
	}
	c.reapAt = max(minReap, 2*len(c.entries))
}

// len returns the entry count, stale entries included.
func (c *cache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

package resolver

import (
	"slices"
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
// not reaped on read (that would need the write lock). An insert of a
// new key pays an amortised constant cost:
//   - Below capacity, it reaps the expired entries when the map has
//     doubled since the last reap, so a cache that never fills still
//     forgets what its TTLs say it should.
//   - At capacity, it evicts exactly one entry. One walk of the map
//     drops every expired entry and, when the map is still full, picks
//     the capacity/8 live entries closest to expiry (the ones whose
//     loss costs the fewest future hits) as the next victims, evicted
//     one per insert. So a walk and a sort of capacity entries come
//     once every capacity/8 inserts at most: 8 entries visited per
//     insert, amortised.
type cache struct {
	mu       sync.RWMutex
	entries  map[cacheKey]cacheEntry
	capacity int
	reapAt   int // entry count at which the next insert reaps
	// victims are the next entries to evict at capacity, latest
	// expiry first: each is evicted unless it was replaced since.
	victims []victim
	visited int // entries the reaping walks have visited
}

// victim is an entry picked for eviction, as it was when picked.
type victim struct {
	key     cacheKey
	expires time.Time
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

// put stores msg under key, first making room for a new key in a full
// cache, or reaping one due a sweep.
func (c *cache) put(key cacheKey, msg *dns.Message, expires time.Time) {
	c.mu.Lock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= min(c.capacity, c.reapAt) {
		c.makeRoomLocked(time.Now())
	}
	c.entries[key] = cacheEntry{msg: msg, expires: expires}
	c.mu.Unlock()
}

// makeRoomLocked reaps a cache below capacity. In a full one it frees
// room for one insert: it evicts the next victim still in place, and
// when none is left it reaps, which either frees room or picks the
// next victims.
func (c *cache) makeRoomLocked(now time.Time) {
	if len(c.entries) < c.capacity {
		c.reapLocked(now)
		return
	}
	for {
		for len(c.victims) > 0 {
			v := c.victims[len(c.victims)-1]
			c.victims = c.victims[:len(c.victims)-1]
			if e, ok := c.entries[v.key]; ok && e.expires.Equal(v.expires) {
				delete(c.entries, v.key)
				return
			}
		}
		if c.reapLocked(now); len(c.entries) < c.capacity {
			return
		}
	}
}

// reapLocked drops every expired entry. If the map was full and still
// is, it picks the capacity/8 live entries closest to expiry as the
// next victims. The next sweep below capacity is due when the
// survivors have doubled.
func (c *cache) reapLocked(now time.Time) {
	full := len(c.entries) >= c.capacity
	c.visited += len(c.entries)
	c.victims = c.victims[:0]
	for k, e := range c.entries {
		if now.After(e.expires) {
			delete(c.entries, k)
		} else if full {
			c.victims = append(c.victims, victim{k, e.expires})
		}
	}
	if len(c.entries) < c.capacity {
		c.victims = c.victims[:0]
	} else {
		// Latest expiry first, so the soonest are popped off the end.
		slices.SortFunc(c.victims, func(a, b victim) int { return b.expires.Compare(a.expires) })
		c.victims = append(c.victims[:0], c.victims[len(c.victims)-max(1, c.capacity/8):]...)
	}
	c.reapAt = max(minReap, 2*len(c.entries))
}

// len returns the entry count, stale entries included.
func (c *cache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

package resolver

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dns"
)

// cacheKey identifies one entry of the cache: a response, or the
// exchange in flight for it.
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

// entry is one key's state: an outcome and its expiry, or, while call
// is set, the exchange in flight for the key. An outcome is an answer
// (msg) or a resolution failure (err, a *ServerError; see
// cachedFailure). A flight's entry has the zero expiry, so get reports
// it as a miss.
type entry struct {
	msg     *dns.Message
	err     error
	expires time.Time
	call    *flight
}

// flight is one in-flight wire exchange, shared by every caller that
// joined it.
type flight struct {
	// done is closed by finish after msg and err are set.
	done chan struct{}
	msg  *dns.Message
	err  error

	// refs counts callers still waiting on the flight, under the
	// cache's lock. ctx is the flight-owned exchange context, cancelled
	// when refs drops to zero before the exchange finishes.
	refs   int
	ctx    context.Context
	cancel context.CancelFunc
}

// cache is the resolver's one table: one map behind one RWMutex, each
// key holding its answer or its flight. Concurrent cache hits — the
// bulk-validation hot path — share the read lock. A miss takes the
// write lock once (join) and either finds an answer that landed since,
// joins the flight in progress, or starts one. Expired entries are
// not reaped on read (that would need the write lock); a miss replaces
// its own. An insert of a new key pays an amortised constant cost:
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
//
// Neither a reap nor an eviction drops a flight. A miss that finds
// every entry in flight starts its own over capacity, and a flight
// that finishes while the cache is over capacity answers its callers
// without keeping the answer, so the cache holds at most capacity
// entries again once its flights have finished.
type cache struct {
	mu       sync.RWMutex
	entries  map[cacheKey]entry
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
	return &cache{entries: make(map[cacheKey]entry), capacity: maxEntries, reapAt: minReap}
}

// get returns the cached outcome for key if present and not expired.
// The hit path is allocation-free (pinned by TestExchangeHitPathAllocFree):
// a read lock, one map probe, and an expiry comparison outside the
// lock. Expired entries are reported as misses but left in place for
// the miss's join or the next insert-time reap.
func (c *cache) get(key cacheKey, now time.Time) (entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || now.After(e.expires) {
		return entry{}, false
	}
	return e, true
}

// join looks key up again under the write lock, at now. It returns
// the entry found there: an outcome that is live (its call is nil), or
// the flight in progress, which the caller joins. Otherwise the caller
// leads a new flight, which replaces any expired entry for key, and
// leader is true.
func (c *cache) join(key cacheKey, now time.Time) (e entry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	switch {
	case e.call != nil:
		e.call.refs++
		return e, false
	case ok && !now.After(e.expires):
		return e, false
	case !ok && len(c.entries) >= min(c.capacity, c.reapAt):
		c.makeRoomLocked(now)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e = entry{call: &flight{done: make(chan struct{}), refs: 1, ctx: ctx, cancel: cancel}}
	c.entries[key] = e
	return e, true
}

// leave abandons a flight whose result the caller no longer wants (its
// own context was cancelled). The last departure cancels the flight
// context so an exchange nobody is waiting for stops retrying.
func (c *cache) leave(f *flight) {
	c.mu.Lock()
	f.refs--
	orphaned := f.refs == 0
	c.mu.Unlock()
	if orphaned {
		f.cancel()
	}
}

// finish publishes a flight's outcome. Its entry becomes the outcome,
// live until expires. The zero expiry (a transport error, a
// cancellation) deletes it instead, so such an error is never replayed
// to a later caller (only the callers already joined share it), and
// the next miss starts a fresh flight.
func (c *cache) finish(key cacheKey, f *flight, msg *dns.Message, expires time.Time, err error) {
	c.mu.Lock()
	if !expires.IsZero() && len(c.entries) <= c.capacity {
		c.entries[key] = entry{msg: msg, err: err, expires: expires}
	} else {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	f.msg, f.err = msg, err
	close(f.done)
	f.cancel()
}

// makeRoomLocked reaps a cache below capacity. In a full one it frees
// room for one insert: it evicts the next victim still in place, and
// when none is left it reaps, which either frees room or picks the
// next victims. A full cache with no answer left to evict (every
// entry in flight) gets no room.
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
		if c.reapLocked(now); len(c.entries) < c.capacity || len(c.victims) == 0 {
			return
		}
	}
}

// reapLocked drops every expired outcome. If the map was full and
// still is, it picks the capacity/8 live outcomes closest to expiry as
// the next victims. A flight is neither dropped nor picked. The next
// sweep below capacity is due when the survivors have doubled.
func (c *cache) reapLocked(now time.Time) {
	full := len(c.entries) >= c.capacity
	c.visited += len(c.entries)
	c.victims = c.victims[:0]
	for k, e := range c.entries {
		if e.call != nil {
			continue
		}
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
		c.victims = append(c.victims[:0], c.victims[max(0, len(c.victims)-max(1, c.capacity/8)):]...)
	}
	c.reapAt = max(minReap, 2*len(c.entries))
}

// len returns the entry count, stale and in-flight entries included.
func (c *cache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

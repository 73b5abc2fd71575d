package telemetry

import (
	"sync"
	"sync/atomic"
)

// OverflowLabel is the label value that absorbs series beyond a
// family's cardinality bound. Queries are attacker-influenced (a probe
// can put anything left of the zone suffix), so a labeled family must
// never let wire input mint unbounded series: like the rate limiter's
// bounded source table, a family holds at most its configured number
// of children and routes everything else into one overflow child,
// keeping totals exact while memory stays O(bound).
const OverflowLabel = "_overflow"

// CounterVec is a bounded-cardinality family of counters keyed by one
// label value. The child map is copy-on-write behind an atomic
// pointer: With on an existing child is one atomic load plus a map
// lookup — no locks, no allocations — so hot paths may call it per
// event. Creation (rare, bounded by max) copies the map under a
// mutex.
type CounterVec struct {
	max int

	mu       sync.Mutex
	children atomic.Pointer[map[string]*Counter]

	overflow Counter
}

// NewCounterVec creates a family holding at most max children (<= 0
// means 64), plus the shared overflow child.
func NewCounterVec(max int) *CounterVec {
	if max <= 0 {
		max = 64
	}
	v := &CounterVec{max: max}
	empty := make(map[string]*Counter)
	v.children.Store(&empty)
	return v
}

// With returns the counter for the given label value, creating it if
// the family has room and returning the overflow child otherwise.
func (v *CounterVec) With(label string) *Counter {
	if c := (*v.children.Load())[label]; c != nil {
		return c
	}
	return v.create(label)
}

func (v *CounterVec) create(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.children.Load()
	if c := old[label]; c != nil {
		return c
	}
	if len(old) >= v.max {
		return &v.overflow
	}
	next := make(map[string]*Counter, len(old)+1)
	for k, c := range old {
		next[k] = c
	}
	c := new(Counter)
	next[label] = c
	v.children.Store(&next)
	return c
}

// each visits every child (overflow last, only when used) in no
// particular order.
func (v *CounterVec) each(fn func(label string, c *Counter)) {
	for label, c := range *v.children.Load() {
		fn(label, c)
	}
	if v.overflow.Value() > 0 {
		fn(OverflowLabel, &v.overflow)
	}
}

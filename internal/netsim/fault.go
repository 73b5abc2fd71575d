package netsim

import (
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// FaultProfile describes the failure behaviour of one link (all
// traffic to one remote address). A zero profile injects nothing; each
// knob composes independently, so a chaos run can combine loss, jitter,
// resets, and flaps on the same link.
//
// All probabilistic decisions draw from a per-link RNG seeded from the
// fabric's chaos seed and the link address, so a single-goroutine
// sequence of operations over the same link reproduces the same fault
// schedule for the same seed. Under concurrency the per-operation
// interleaving is scheduler-dependent, but each link's decision stream
// is still drawn from the same deterministic sequence.
type FaultProfile struct {
	// DialFailure is the probability in [0, 1] that a dial attempt
	// fails with ErrConnRefused (a filtered port, a dead host, an
	// overloaded accept queue).
	DialFailure float64
	// Loss is the probability in [0, 1] that a datagram write is
	// silently dropped. It applies only to datagram ("udp")
	// connections; stream connections are never corrupted by loss
	// (TCP retransmits below the layer this fabric models).
	Loss float64
	// ResetRate is the probability in [0, 1] that any given write
	// resets the connection mid-stream: the write fails with
	// ErrConnReset and the peer's reads fail the same way once the
	// in-flight queue drains.
	ResetRate float64
	// MaxChunk caps the bytes delivered per internal chunk. Writes
	// larger than MaxChunk are split, so the peer observes partial
	// reads and io.ReadFull-style loops are actually exercised. Zero
	// means unlimited (one write, one chunk).
	MaxChunk int
	// Jitter adds a uniform random delay in [0, Jitter) to connection
	// establishment.
	Jitter time.Duration
	// FlapPeriod and FlapDown model link flaps: the link is down for
	// the first FlapDown of every FlapPeriod, measured from the
	// fabric's chaos epoch. While down, dials fail with ErrLinkDown
	// and writes on established connections reset. Zero FlapPeriod
	// disables flapping.
	FlapPeriod time.Duration
	FlapDown   time.Duration
}

// zero reports whether the profile injects no faults at all.
func (p *FaultProfile) zero() bool {
	return p == nil || *p == FaultProfile{}
}

// linkFaults is the runtime fault state of one link: its profile plus
// the seeded RNG that drives its probabilistic decisions.
type linkFaults struct {
	mu      sync.Mutex
	profile FaultProfile
	rng     *rand.Rand
	epoch   time.Time
}

func newLinkFaults(p FaultProfile, seed int64, addr netip.Addr, epoch time.Time) *linkFaults {
	return &linkFaults{
		profile: p,
		rng:     rand.New(rand.NewSource(linkSeed(seed, addr))),
		epoch:   epoch,
	}
}

// linkSeed derives a per-link seed so every link draws an independent
// deterministic stream regardless of the order links are first used.
func linkSeed(seed int64, addr netip.Addr) int64 {
	h := fnv.New64a()
	b, _ := addr.MarshalBinary()
	_, _ = h.Write(b)
	return seed ^ int64(h.Sum64())
}

// roll draws one probabilistic decision.
func (lf *linkFaults) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.rng.Float64() < p
}

// jitter draws the extra establishment delay.
func (lf *linkFaults) jitter() time.Duration {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	j := lf.profile.Jitter
	if j <= 0 {
		return 0
	}
	return time.Duration(lf.rng.Int63n(int64(j)))
}

// down reports whether the link is inside a flap window at now.
func (lf *linkFaults) down(now time.Time) bool {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	p := lf.profile
	if p.FlapPeriod <= 0 || p.FlapDown <= 0 {
		return false
	}
	phase := now.Sub(lf.epoch) % p.FlapPeriod
	if phase < 0 {
		phase += p.FlapPeriod
	}
	return phase < p.FlapDown
}

// maxChunk returns the configured chunk cap.
func (lf *linkFaults) maxChunk() int {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	return lf.profile.MaxChunk
}

// SetChaosSeed fixes the seed for all fault decisions and resets the
// chaos epoch (the zero phase of flap schedules). Call it before
// configuring fault profiles; links already created re-derive their
// RNG streams from the new seed.
func (f *Fabric) SetChaosSeed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.chaosSeed = seed
	f.chaosEpoch = time.Now()
	for addr, lf := range f.faults {
		lf.mu.Lock()
		lf.rng = rand.New(rand.NewSource(linkSeed(seed, addr)))
		lf.epoch = f.chaosEpoch
		lf.mu.Unlock()
	}
}

// SetFaults installs (or, with a nil or zero profile, clears) the
// fault profile for all traffic to addr. It overrides any default
// profile for that link.
func (f *Fabric) SetFaults(addr netip.Addr, p *FaultProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.zero() {
		delete(f.faults, addr)
		return
	}
	f.faults[addr] = newLinkFaults(*p, f.chaosSeed, addr, f.chaosEpochLocked())
}

// SetDefaultFaults installs a profile applied to every link without an
// explicit per-address profile. A nil or zero profile clears it; links
// that already materialized fault state from a previous default keep
// injecting until cleared with SetFaults(addr, nil).
func (f *Fabric) SetDefaultFaults(p *FaultProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.zero() {
		f.defaultFaults = nil
		return
	}
	cp := *p
	f.defaultFaults = &cp
}

// chaosEpochLocked returns the flap epoch, anchoring it on first use.
// Caller holds f.mu.
func (f *Fabric) chaosEpochLocked() time.Time {
	if f.chaosEpoch.IsZero() {
		f.chaosEpoch = time.Now()
	}
	return f.chaosEpoch
}

// faultsFor returns the fault state for traffic to addr, materializing
// it from the default profile when needed. Returns nil when the link
// is fault-free.
func (f *Fabric) faultsFor(addr netip.Addr) *linkFaults {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lf, ok := f.faults[addr]; ok {
		return lf
	}
	if f.defaultFaults == nil {
		return nil
	}
	lf := newLinkFaults(*f.defaultFaults, f.chaosSeed, addr, f.chaosEpochLocked())
	f.faults[addr] = lf
	return lf
}

package fingerprint

import (
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
	"sendervalid/internal/spf"
)

// Observation is what one MTA's queries show, test policy by test
// policy — the study's single reading of the query log. The trait
// vector (Vector) and the §7 population tallies (package experiment)
// are both derived from it, so they cannot disagree about an MTA.
//
// Its core is, per catalog policy, the set of that policy's rows the
// MTA asked for, read the way the server answers them (policy.Row): a
// passive-DNS record of each (name, type) once. Every reading is a
// count of, or a membership test on, a row set package policy names.
// Beside the sets it keeps t01's two earliest times and the t09/t10
// transport flags. Every field is a set union, an earliest time or an
// OR, so the fold that fills it (Observations.Add) is commutative and
// idempotent: entry order, chunking and repeats do not matter.
type Observation struct {
	MTAID string

	asked [policy.Policies]policy.RowSet

	// t01: earliest query for the a-mechanism target and for the shaped
	// chain's last include; zero = never seen.
	targetAt, lastAt time.Time

	// t09: transports a truncated row was asked over.
	UDP, TCP bool

	// t10: the IPv6-only include was asked for over IPv6.
	V6 bool
}

// Observations is the fold's state: one Observation per MTA that sent
// at least one query under a test policy, keyed by MTA ID.
type Observations map[string]*Observation

// minPartEntries is the fewest entries Observe gives a part of its own,
// so that starting a goroutine and merging its fold stay small beside
// folding the part (about 50 µs at 1024 entries), and a small log is
// folded in one loop.
const minPartEntries = 1024

// Observe folds a whole log. It splits the log into up to GOMAXPROCS
// contiguous parts of at least minPartEntries entries, folds each on
// its own goroutine into its own Observations (the first on the
// calling goroutine) and merges the parts into the first. The fold is
// commutative and idempotent, so the result is the serial fold's
// whatever the split; a log too small to split is one part, folded in
// one loop.
func Observe(entries []dnsserver.LogEntry) Observations {
	n := max(1, min(runtime.GOMAXPROCS(0), len(entries)/minPartEntries))
	parts := make([]Observations, n)
	part := func(k int) []dnsserver.LogEntry {
		return entries[k*len(entries)/n : (k+1)*len(entries)/n]
	}
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[k] = fold(part(k))
		}()
	}
	parts[0] = fold(part(0))
	wg.Wait()
	for _, p := range parts[1:] {
		parts[0].merge(p)
	}
	return parts[0]
}

// fold folds entries in order into a new Observations.
func fold(entries []dnsserver.LogEntry) Observations {
	obs := make(Observations)
	for i := range entries {
		obs.Add(&entries[i])
	}
	return obs
}

// merge folds other's observations into obs, as if obs had also been
// handed other's entries: row sets are unions, t01's times the earlier
// of the two, the t09/t10 flags ORs. obs takes over observations only
// other holds, so other must not be folded into afterwards.
func (obs Observations) merge(other Observations) {
	for id, src := range other {
		o := obs[id]
		if o == nil {
			obs[id] = src
			continue
		}
		for p := range o.asked {
			o.asked[p] |= src.asked[p]
		}
		if !src.targetAt.IsZero() {
			earliest(&o.targetAt, src.targetAt)
		}
		if !src.lastAt.IsZero() {
			earliest(&o.lastAt, src.lastAt)
		}
		o.UDP, o.TCP, o.V6 = o.UDP || src.UDP, o.TCP || src.TCP, o.V6 || src.V6
	}
}

// Add folds one entry in. It does not retain e: the MTA ID is cloned
// when the MTA is first seen, so a decoded entry's shared string
// storage is not kept alive by the fold. Entries the server could not
// attribute to an (MTA, test policy) pair are ignored.
func (obs Observations) Add(e *dnsserver.LogEntry) {
	if e.MTAID == "" || e.TestID == "" {
		return
	}
	o := obs[e.MTAID]
	if o == nil {
		id := strings.Clone(e.MTAID)
		o = &Observation{MTAID: id}
		obs[id] = o
	}
	p, row, ok := policy.Row(e.TestID, e.Rest, e.Type)
	if !ok {
		return
	}
	o.asked[p] |= row
	switch {
	case policy.SerialTarget.Holds(p, row):
		earliest(&o.targetAt, e.Time)
	case policy.SerialLast.Holds(p, row):
		earliest(&o.lastAt, e.Time)
	case policy.Truncated.Holds(p, row):
		o.UDP = o.UDP || e.Transport == "udp"
		o.TCP = o.TCP || e.Transport == "tcp"
	case policy.IPv6Only.Holds(p, row):
		o.V6 = o.V6 || e.OverIPv6
	}
}

// Tested reports whether r's policy was tested: its base policy was
// fetched (a TXT query for the test name itself).
func (o *Observation) Tested(r policy.Reading) bool { return o.asked[r.Policy]&policy.Base != 0 }

// Has reports whether the MTA asked for any of r's rows.
func (o *Observation) Has(r policy.Reading) bool { return o.asked[r.Policy]&r.Rows != 0 }

// Count is how many of r's rows the MTA asked for.
func (o *Observation) Count(r policy.Reading) int {
	return bits.OnesCount64(uint64(o.asked[r.Policy] & r.Rows))
}

// DomainObservation is what the queries under one NotifyEmail-style
// name show — <id>.<suffix>, the From domain minted for a recipient
// domain (§6, Tables 4–7, Figure 2) or for a self-test session — and
// the only reading of that zone: package experiment's DomainValidation
// and package selftest's Assessment are both derived from it. Every
// field but Queries is an earliest-time or an OR, so its fold is
// idempotent as well as commutative.
type DomainObservation struct {
	// PolicyTXTAt is the earliest TXT query for the name itself — the
	// SPF policy fetch that makes the receiver count as SPF-validating;
	// zero = never seen.
	PolicyTXTAt time.Time
	// MTAAddr: the policy's a-mechanism target (policy.MTALabel) was
	// asked for, the lookup that completes the evaluation (without it,
	// §6.1's partial validator).
	MTAAddr bool
	// DKIMKey: a key was asked for under <selector>.<policy.DKIMLabel>.
	DKIMKey bool
	// DMARC: the policy.DMARCLabel policy was asked for.
	DMARC bool
	// Queries counts every query attributed to the id, repeats
	// included: the one count outside the set semantics, kept for
	// selftest's report, which shows it.
	Queries int
}

// FetchedPolicy reports whether the SPF policy was fetched.
func (o *DomainObservation) FetchedPolicy() bool { return !o.PolicyTXTAt.IsZero() }

// DomainObservations is the NotifyEmail-zone fold's state, keyed by
// domain or session id.
type DomainObservations map[string]*DomainObservation

// Add folds one entry in. It does not retain e, cloning the id when it
// is first seen, as Observations.Add does. The zone has one
// identifying label, so its entries are the attributed ones without a
// test label; the rest (test-zone queries, the apex) are ignored.
func (obs DomainObservations) Add(e *dnsserver.LogEntry) {
	if e.MTAID == "" || e.TestID != "" {
		return
	}
	o := obs[e.MTAID]
	if o == nil {
		o = &DomainObservation{}
		obs[strings.Clone(e.MTAID)] = o
	}
	o.Queries++
	switch {
	case len(e.Rest) == 0 && e.Type == dns.TypeTXT:
		earliest(&o.PolicyTXTAt, e.Time)
	case len(e.Rest) == 1 && e.Rest[0] == policy.MTALabel:
		o.MTAAddr = true
	case len(e.Rest) == 1 && e.Rest[0] == policy.DMARCLabel:
		o.DMARC = true
	case len(e.Rest) == 2 && e.Rest[1] == policy.DKIMLabel:
		o.DKIMKey = true
	}
}

func earliest(t *time.Time, at time.Time) {
	if t.IsZero() || at.Before(*t) {
		*t = at
	}
}

// Serial reports whether the a-mechanism target was asked for only
// after the shaped chain's last include answered (on demand, §7.1)
// rather than before it (prefetched). The last include answers
// unshaped, so on virtual time a serial validator asks for the target
// at the very instant it asked for that include: not before it counts
// as serial. ok is false unless both signals were seen.
func (o *Observation) Serial() (serial, ok bool) {
	if o.targetAt.IsZero() || o.lastAt.IsZero() {
		return false, false
	}
	return !o.targetAt.Before(o.lastAt), true
}

// The limit rules both readings share, each meaningful only when Tested
// says the axis was: at most ten of the limits tree's policies asked
// for, all 46 of them, at most ten MX-host addresses.
func (o *Observation) WithinLookupLimit() bool {
	return o.Count(policy.LimitsTree) <= spf.DefaultLookupLimit
}
func (o *Observation) RanFullTree() bool {
	return o.Count(policy.LimitsTree) == policy.LimitsTree.Len()
}
func (o *Observation) WithinMXLimit() bool {
	return o.Count(policy.MXHosts) <= spf.DefaultMXAddressLimit
}

// PastVoidLimit reports whether the MTA went past the two-void-lookup
// limit of RFC 7208 §4.6.4. A validator holding the limit still asks
// limit + 1 void names — it cannot know the limit is reached until the
// third answer comes back empty (spf.Checker.checkVoid) — so only a
// fourth name shows a violation.
func (o *Observation) PastVoidLimit() bool {
	return o.Count(policy.Void) > spf.DefaultVoidLookupLimit+1
}

// known is Unknown for an untested axis, else what was observed.
func known(tested, observed bool) Trait {
	switch {
	case !tested:
		return Unknown
	case observed:
		return True
	}
	return False
}

// Vector reads the twelve traits off the observation.
func (o *Observation) Vector() *Vector {
	serial, serialOK := o.Serial()
	return &Vector{
		MTAID:                o.MTAID,
		SerialLookups:        known(serialOK, serial),
		RespectsLookupLimit:  known(o.Tested(policy.LimitsTree), o.WithinLookupLimit()),
		RanFullTree:          known(o.Tested(policy.LimitsTree), o.RanFullTree()),
		ChecksHELO:           known(o.Tested(policy.HELO) || o.Has(policy.HELO), o.Has(policy.HELO)),
		TolerantMainSyntax:   known(o.Tested(policy.MainAfter), o.Has(policy.MainAfter)),
		TolerantChildSyntax:  known(o.Tested(policy.ChildCont), o.Has(policy.ChildCont)),
		RespectsVoidLimit:    known(o.Tested(policy.Void), !o.PastVoidLimit()),
		MXFallbackA:          known(o.Tested(policy.MXFallback), o.Has(policy.MXFallback)),
		FollowsOneOfMultiple: known(o.Tested(policy.MultiOne), o.Has(policy.MultiOne) || o.Has(policy.MultiTwo)),
		TCPCapable:           known(o.UDP || o.TCP, o.TCP),
		IPv6Capable:          known(o.Tested(policy.IPv6Only), o.V6),
		RespectsMXLimit:      known(o.Tested(policy.MXHosts), o.WithinMXLimit()),
	}
}

// Vectors reads every MTA's trait vector.
func (obs Observations) Vectors() map[string]*Vector {
	out := make(map[string]*Vector, len(obs))
	for id, o := range obs {
		out[id] = o.Vector()
	}
	return out
}

package fingerprint

import (
	"strings"
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
// Every field is an earliest-time, an OR or a count, so the fold that
// fills it (Observations.Add) is commutative: entry order and chunking
// do not matter. A *Base field reports that the test's base policy was
// fetched (a TXT query for the test name itself), which is what makes
// the MTA count as tested on that axis.
type Observation struct {
	MTAID string

	// t01: earliest address query for the a-mechanism target "foo" and
	// earliest TXT query for the shaped "l3" include; zero = never seen.
	FooAddrAt, L3TXTAt time.Time

	// t02: TXT queries below the base policy (0–46).
	LimitsBase      bool
	LimitsFollowUps int

	// t03: the MAIL domain's and the HELO name's policy were fetched.
	MailTXT, HeloTXT bool

	// t04, t05: an address query for the name right of ("after") or
	// past ("cont") the syntax error.
	MainBase, MainAfter  bool
	ChildBase, ChildCont bool

	// t06: address queries for the five non-resolving names v1…v5.
	VoidBase    bool
	VoidQueries int

	// t07: an address query for the MX-less name.
	NoMXBase, NoMXAddr bool

	// t08: address queries for the two published records' targets.
	MultiBase, MultiOne, MultiTwo bool

	// t09: transports the truncating policy was asked over.
	UDP, TCP bool

	// t10: the "l1" include, served only over IPv6, was asked for there.
	V6Base, V6L1 bool

	// t11: address queries for the twenty MX hosts mx00…mx19.
	MXBase        bool
	MXAddrLookups int
}

// Observations is the fold's state: one Observation per MTA that sent
// at least one query under a test policy, keyed by MTA ID.
type Observations map[string]*Observation

// Observe folds a whole log.
func Observe(entries []dnsserver.LogEntry) Observations {
	obs := make(Observations)
	for i := range entries {
		obs.Add(&entries[i])
	}
	return obs
}

// Add folds one entry in. It does not retain e. Entries the server
// could not attribute to an (MTA, test policy) pair are ignored.
func (obs Observations) Add(e *dnsserver.LogEntry) {
	if e.MTAID == "" || e.TestID == "" {
		return
	}
	o := obs[e.MTAID]
	if o == nil {
		o = &Observation{MTAID: e.MTAID}
		obs[e.MTAID] = o
	}
	// Every follow-up name the catalog publishes is exactly one label
	// below the test label; deeper names are not the policy's.
	label := ""
	if len(e.Rest) == 1 {
		label = e.Rest[0]
	}
	txt := e.Type == dns.TypeTXT
	addr := e.Type == dns.TypeA || e.Type == dns.TypeAAAA
	base := txt && len(e.Rest) == 0

	switch e.TestID {
	case "t01":
		switch {
		case addr && label == "foo":
			earliest(&o.FooAddrAt, e.Time)
		case txt && label == "l3":
			earliest(&o.L3TXTAt, e.Time)
		}
	case "t02":
		switch {
		case base:
			o.LimitsBase = true
		case txt:
			o.LimitsFollowUps++
		}
	case "t03":
		o.MailTXT = o.MailTXT || base
		o.HeloTXT = o.HeloTXT || txt && label == "helo"
	case "t04":
		o.MainBase = o.MainBase || base
		o.MainAfter = o.MainAfter || addr && label == "after"
	case "t05":
		o.ChildBase = o.ChildBase || base
		o.ChildCont = o.ChildCont || addr && label == "cont"
	case "t06":
		o.VoidBase = o.VoidBase || base
		if addr && strings.HasPrefix(label, "v") {
			o.VoidQueries++
		}
	case "t07":
		o.NoMXBase = o.NoMXBase || base
		o.NoMXAddr = o.NoMXAddr || addr && label == "nomx"
	case "t08":
		o.MultiBase = o.MultiBase || base
		o.MultiOne = o.MultiOne || addr && label == "one"
		o.MultiTwo = o.MultiTwo || addr && label == "two"
	case "t09":
		o.UDP = o.UDP || e.Transport == "udp"
		o.TCP = o.TCP || e.Transport == "tcp"
	case "t10":
		o.V6Base = o.V6Base || base
		o.V6L1 = o.V6L1 || e.OverIPv6 && label == "l1"
	case "t11":
		o.MXBase = o.MXBase || base
		if addr && strings.HasPrefix(label, "mx") && label != "mxfarm" {
			o.MXAddrLookups++
		}
	}
}

// DomainObservation is what the queries under one NotifyEmail-style
// name show — <id>.<suffix>, the From domain minted for a recipient
// domain (§6, Tables 4–7, Figure 2) or for a self-test session — and
// the only reading of that zone: package experiment's DomainValidation
// and package selftest's Assessment are both derived from it. Like
// Observation, every field is an earliest-time, an OR or a count.
type DomainObservation struct {
	// PolicyTXTAt is the earliest TXT query for the name itself — the
	// SPF policy fetch that makes the receiver count as SPF-validating;
	// zero = never seen.
	PolicyTXTAt time.Time
	// MTAAddr: the policy's a-mechanism target "mta" was asked for, the
	// lookup that completes the evaluation (without it, §6.1's partial
	// validator).
	MTAAddr bool
	// DKIMKey: a key was asked for under "<selector>._domainkey".
	DKIMKey bool
	// DMARC: the "_dmarc" policy was asked for.
	DMARC bool
	// Queries counts every query attributed to the id.
	Queries int
}

// FetchedPolicy reports whether the SPF policy was fetched.
func (o *DomainObservation) FetchedPolicy() bool { return !o.PolicyTXTAt.IsZero() }

// DomainObservations is the NotifyEmail-zone fold's state, keyed by
// domain or session id.
type DomainObservations map[string]*DomainObservation

// Add folds one entry in. It does not retain e. The zone has one
// identifying label, so its entries are the attributed ones without a
// test label; the rest (test-zone queries, the apex) are ignored.
func (obs DomainObservations) Add(e *dnsserver.LogEntry) {
	if e.MTAID == "" || e.TestID != "" {
		return
	}
	o := obs[e.MTAID]
	if o == nil {
		o = &DomainObservation{}
		obs[e.MTAID] = o
	}
	o.Queries++
	switch {
	case len(e.Rest) == 0 && e.Type == dns.TypeTXT:
		earliest(&o.PolicyTXTAt, e.Time)
	case len(e.Rest) == 1 && e.Rest[0] == "mta":
		o.MTAAddr = true
	case len(e.Rest) == 1 && e.Rest[0] == "_dmarc":
		o.DMARC = true
	case len(e.Rest) == 2 && e.Rest[1] == "_domainkey":
		o.DKIMKey = true
	}
}

func earliest(t *time.Time, at time.Time) {
	if t.IsZero() || at.Before(*t) {
		*t = at
	}
}

// Serial reports whether the a-mechanism target was asked for only
// after the shaped l3 include answered (on demand, §7.1) rather than
// before it (prefetched). ok is false unless both signals were seen.
func (o *Observation) Serial() (serial, ok bool) {
	if o.FooAddrAt.IsZero() || o.L3TXTAt.IsZero() {
		return false, false
	}
	return o.FooAddrAt.After(o.L3TXTAt), true
}

// The limit rules both readings share, each meaningful only when the
// matching *Base field says the axis was tested: at most ten follow-ups
// on the limits tree, all 46 of them, at most ten MX-host address
// lookups.
func (o *Observation) WithinLookupLimit() bool { return o.LimitsFollowUps <= spf.DefaultLookupLimit }
func (o *Observation) RanFullTree() bool       { return o.LimitsFollowUps >= policy.LimitsTreeSize() }
func (o *Observation) WithinMXLimit() bool     { return o.MXAddrLookups <= spf.DefaultMXAddressLimit }

// PastVoidLimit reports whether the MTA went past the two-void-lookup
// limit of RFC 7208 §4.6.4. A validator holding the limit still sends
// limit + 1 void queries — it cannot know the limit is reached until
// the third answer comes back empty (spf.Checker.checkVoid) — so only
// a fourth query shows a violation.
func (o *Observation) PastVoidLimit() bool { return o.VoidQueries > spf.DefaultVoidLookupLimit+1 }

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
		RespectsLookupLimit:  known(o.LimitsBase, o.WithinLookupLimit()),
		RanFullTree:          known(o.LimitsBase, o.RanFullTree()),
		ChecksHELO:           known(o.MailTXT || o.HeloTXT, o.HeloTXT),
		TolerantMainSyntax:   known(o.MainBase, o.MainAfter),
		TolerantChildSyntax:  known(o.ChildBase, o.ChildCont),
		RespectsVoidLimit:    known(o.VoidBase, !o.PastVoidLimit()),
		MXFallbackA:          known(o.NoMXBase, o.NoMXAddr),
		FollowsOneOfMultiple: known(o.MultiBase, o.MultiOne || o.MultiTwo),
		TCPCapable:           known(o.UDP || o.TCP, o.TCP),
		IPv6Capable:          known(o.V6Base, o.V6L1),
		RespectsMXLimit:      known(o.MXBase, o.WithinMXLimit()),
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

// Package fingerprint implements the study's proposed future work
// (paper §8): using the collective behaviour an MTA exhibits across
// the test-policy catalog to classify — and potentially identify — its
// SPF validator implementation. Each MTA's query-log footprint is
// folded into an Observation (observe.go) and read as a trait vector;
// identical vectors cluster into behavioural families, and vectors can
// be matched against reference profiles of known implementation styles.
// observe.go also holds the log's other reading, DomainObservation: what
// the queries under one NotifyEmail-zone name show (§6).
package fingerprint

import (
	"fmt"
	"sort"
	"strings"
)

// Trait is a tri-state behavioural observation.
type Trait int8

// Trait values.
const (
	// Unknown means the MTA's interaction with the relevant test
	// policy was insufficient to decide.
	Unknown Trait = iota
	// False means the behaviour was observed absent.
	False
	// True means the behaviour was observed present.
	True
)

// String renders a trait as "?", "n", or "y".
func (t Trait) String() string {
	switch t {
	case True:
		return "y"
	case False:
		return "n"
	}
	return "?"
}

// Vector is one MTA's behaviour signature, read off its Observation.
// Field order defines the signature string; TestVectorFieldOrder holds
// the Trait fields, traits() and TraitNames to one order.
type Vector struct {
	MTAID string

	// SerialLookups: resolves policy terms on demand rather than
	// prefetching (t01).
	SerialLookups Trait
	// RespectsLookupLimit: stops at ≤10 DNS-querying terms (t02).
	RespectsLookupLimit Trait
	// RanFullTree: issued all 46 lookups of the limits tree (t02).
	RanFullTree Trait
	// ChecksHELO: validates the HELO identity (t03).
	ChecksHELO Trait
	// TolerantMainSyntax / TolerantChildSyntax: continues past policy
	// syntax errors (t04/t05).
	TolerantMainSyntax  Trait
	TolerantChildSyntax Trait
	// RespectsVoidLimit: stops at the two-void-lookup limit, that is,
	// sends no fourth void query (t06; Observation.PastVoidLimit).
	RespectsVoidLimit Trait
	// MXFallbackA: issues the forbidden implicit-MX fallback (t07).
	MXFallbackA Trait
	// FollowsOneOfMultiple: evaluates one of several SPF records (t08).
	FollowsOneOfMultiple Trait
	// TCPCapable: retries truncated responses over TCP (t09).
	TCPCapable Trait
	// IPv6Capable: retrieves policies served only over IPv6 (t10).
	IPv6Capable Trait
	// RespectsMXLimit: stops at ≤10 MX address lookups (t11).
	RespectsMXLimit Trait
}

// traits returns the vector's fields in signature order.
func (v *Vector) traits() []Trait {
	return []Trait{
		v.SerialLookups, v.RespectsLookupLimit, v.RanFullTree, v.ChecksHELO,
		v.TolerantMainSyntax, v.TolerantChildSyntax, v.RespectsVoidLimit,
		v.MXFallbackA, v.FollowsOneOfMultiple, v.TCPCapable, v.IPv6Capable,
		v.RespectsMXLimit,
	}
}

// TraitNames labels the signature positions.
var TraitNames = []string{
	"serial", "lookup-limit", "full-tree", "helo",
	"tolerant-main", "tolerant-child", "void-limit",
	"mx-fallback", "follows-one", "tcp", "ipv6", "mx-limit",
}

// Signature renders the vector as a compact string, e.g. "yyn?...".
func (v *Vector) Signature() string {
	var sb strings.Builder
	for _, t := range v.traits() {
		sb.WriteString(t.String())
	}
	return sb.String()
}

// Distance is the number of decided-in-both positions where two
// vectors disagree, and the number of comparable positions.
func Distance(a, b *Vector) (disagree, comparable int) {
	at, bt := a.traits(), b.traits()
	for i := range at {
		if at[i] == Unknown || bt[i] == Unknown {
			continue
		}
		comparable++
		if at[i] != bt[i] {
			disagree++
		}
	}
	return disagree, comparable
}

// Cluster groups vectors by identical signature, largest first.
type Cluster struct {
	Signature string
	MTAs      []string
}

// Clusters groups the vectors into behavioural families.
func Clusters(vectors map[string]*Vector) []Cluster {
	byName := make(map[string][]string)
	for id, v := range vectors {
		byName[v.Signature()] = append(byName[v.Signature()], id)
	}
	out := make([]Cluster, 0, len(byName))
	for sig, ids := range byName {
		sort.Strings(ids)
		out = append(out, Cluster{Signature: sig, MTAs: ids})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].MTAs) != len(out[j].MTAs) {
			return len(out[i].MTAs) > len(out[j].MTAs)
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// Reference is a labelled implementation profile to classify against.
type Reference struct {
	Name   string
	Vector Vector
}

// References returns reference profiles for recognizable validator
// styles. Trait positions an implementation does not determine are
// left Unknown and excluded from matching.
func References() []Reference {
	return []Reference{
		{
			Name: "strict-rfc7208",
			Vector: Vector{
				SerialLookups: True, RespectsLookupLimit: True, RanFullTree: False,
				TolerantMainSyntax: False, TolerantChildSyntax: False,
				RespectsVoidLimit: True, MXFallbackA: False,
				FollowsOneOfMultiple: False, TCPCapable: True,
				RespectsMXLimit: True,
			},
		},
		{
			Name: "limit-ignoring-legacy",
			Vector: Vector{
				SerialLookups: True, RespectsLookupLimit: False, RanFullTree: True,
				RespectsVoidLimit: False, MXFallbackA: True,
				TCPCapable: True, RespectsMXLimit: False,
			},
		},
		{
			Name: "parallel-prefetcher",
			Vector: Vector{
				SerialLookups: False, TCPCapable: True,
			},
		},
		{
			Name: "tolerant-forgiving",
			Vector: Vector{
				SerialLookups: True, TolerantMainSyntax: True,
				TolerantChildSyntax: True, FollowsOneOfMultiple: True,
				TCPCapable: True,
			},
		},
	}
}

// Match is a classification outcome.
type Match struct {
	Name string
	// Disagreements and Comparable are the Hamming distance inputs.
	Disagreements int
	Comparable    int
}

// Score is the agreement fraction (1 = perfect on comparable traits).
func (m Match) Score() float64 {
	if m.Comparable == 0 {
		return 0
	}
	return 1 - float64(m.Disagreements)/float64(m.Comparable)
}

// Classify ranks the references by agreement with v, best first.
// References sharing no comparable traits with v are omitted.
func Classify(v *Vector, refs []Reference) []Match {
	var out []Match
	for i := range refs {
		d, c := Distance(v, &refs[i].Vector)
		if c == 0 {
			continue
		}
		out = append(out, Match{Name: refs[i].Name, Disagreements: d, Comparable: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score() != out[j].Score() {
			return out[i].Score() > out[j].Score()
		}
		if out[i].Comparable != out[j].Comparable {
			return out[i].Comparable > out[j].Comparable
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Describe renders a vector with trait labels for human consumption.
func Describe(v *Vector) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]", v.MTAID, v.Signature())
	traits := v.traits()
	var decided []string
	for i, t := range traits {
		if t != Unknown {
			decided = append(decided, TraitNames[i]+"="+t.String())
		}
	}
	if len(decided) > 0 {
		sb.WriteString(" " + strings.Join(decided, " "))
	}
	return sb.String()
}

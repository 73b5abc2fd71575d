package experiment

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/fingerprint"
)

// TestObservations checks the one reading of the query log against a
// real one: a small fleet probed with every behaviour-revealing policy.
func TestObservations(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(400, 19), NotifyRates())
	RunProbes(context.Background(), w, CoreTests[:11], 24)
	log := w.Log.Entries()
	obs := fingerprint.Observe(log)
	if len(obs) < 100 {
		t.Fatalf("only %d MTAs observed", len(obs))
	}

	// The fold keeps only earliest times, ORs and counts, so the order
	// entries arrive in cannot matter.
	t.Run("order", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			shuffled := append([]dnsserver.LogEntry(nil), log...)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if got := fingerprint.Observe(shuffled); !reflect.DeepEqual(got, obs) {
				t.Errorf("seed %d: shuffled log folds differently", seed)
			}
		}
	})

	// Nor can chunking: two logs of disjoint MTAs folded one after the
	// other, either way round, equal the fold of their concatenation.
	t.Run("chunks", func(t *testing.T) {
		var a, b []dnsserver.LogEntry
		for _, e := range log {
			if e.MTAID[len(e.MTAID)-1]%2 == 0 { // "m000123": split on the last digit
				a = append(a, e)
			} else {
				b = append(b, e)
			}
		}
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("split %d/%d", len(a), len(b))
		}
		for _, parts := range [][2][]dnsserver.LogEntry{{a, b}, {b, a}} {
			got := fingerprint.Observe(parts[0])
			for i := range parts[1] {
				got.Add(&parts[1][i])
			}
			if !reflect.DeepEqual(got, obs) {
				t.Error("two disjoint logs fold differently from their concatenation")
			}
		}
	})

	// A log with every entry twice (a resolver retransmitting each
	// query) leaves every flag and both timestamps as they were. The
	// three counts double: the fold does not dedupe — the rule for
	// which repeats are retransmits (ROADMAP item 6) belongs in Add.
	t.Run("duplicates", func(t *testing.T) {
		doubled := make([]dnsserver.LogEntry, 0, 2*len(log))
		for _, e := range log {
			doubled = append(doubled, e, e)
		}
		got := fingerprint.Observe(doubled)
		for _, o := range got {
			if o.LimitsFollowUps%2 != 0 || o.VoidQueries%2 != 0 || o.MXAddrLookups%2 != 0 {
				t.Fatalf("%s: a count did not double: %+v", o.MTAID, o)
			}
			o.LimitsFollowUps /= 2
			o.VoidQueries /= 2
			o.MXAddrLookups /= 2
		}
		if !reflect.DeepEqual(got, obs) {
			t.Error("duplicated entries changed a flag or a timestamp")
		}
	})

	// The tallies and the vectors are two readings of obs: on every
	// axis the vectors that decide the trait are the tally's Tested and
	// those that set it its Observed (Tested − Observed for the
	// Respects* traits, which are stated the other way round).
	t.Run("tallies equal vectors", func(t *testing.T) {
		sp, ll, b := SerialParallel(obs), LookupLimits(obs), Behaviors(obs)
		_, vectors := Fingerprints(obs)
		tallies := []struct { // in fingerprint.TraitNames order
			share    SimpleShare
			inverted bool
		}{
			{SimpleShare{sp.Tested, sp.Serial}, false},
			{SimpleShare{ll.Tested, ll.HaltedBeforeTen}, false},
			{SimpleShare{ll.Tested, ll.RanAll}, false},
			{b.HELOChecked, false},
			{b.SyntaxMainTolerant, false},
			{b.SyntaxChildTolerant, false},
			{b.VoidExceeded, true},
			{b.MXFallback, false},
			{SimpleShare{b.MultipleOne.Tested, b.MultipleOne.Observed + b.MultipleBoth.Observed}, false},
			{b.TCPRetried, false},
			{b.IPv6Retrieved, false},
			{b.MXLimitCompliant, false},
		}
		if len(tallies) != len(fingerprint.TraitNames) {
			t.Fatalf("%d tallies for %d traits", len(tallies), len(fingerprint.TraitNames))
		}
		for i, name := range fingerprint.TraitNames {
			decided, set := 0, 0
			for _, v := range vectors {
				switch v.Signature()[i] {
				case 'y':
					decided, set = decided+1, set+1
				case 'n':
					decided++
				}
			}
			tested, want := tallies[i].share.Tested, tallies[i].share.Observed
			if tallies[i].inverted {
				want = tested - want
			}
			if decided != tested || set != want || tested == 0 {
				t.Errorf("%s: vectors decide %d and set %d; the tally has %d tested, %d of them set",
					name, decided, set, tested, want)
			}
		}
	})

	// Scored against planted truth, the first row of ROADMAP item 6's
	// scorecard: nobody is accused of passing the void limit who was
	// not planted to (precision 1.0). Planted to means a raised or
	// absent limit — or prefetching: a parallel validator launches all
	// five address lookups before it has counted one void, so it sends
	// them whatever limit it holds, and the log cannot tell the two.
	t.Run("void precision", func(t *testing.T) {
		past := 0
		for id, o := range obs {
			if !o.VoidBase || !o.PastVoidLimit() {
				continue
			}
			past++
			if opts := w.MTAs[id].Profile().SPFOptions; opts.VoidLookupLimit == 0 && !opts.Prefetch {
				t.Errorf("%s sent %d void queries but is a serial validator holding the default limit", id, o.VoidQueries)
			}
		}
		if past == 0 {
			t.Error("no MTA went past the void limit")
		}
	})
}

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
}

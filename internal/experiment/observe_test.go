package experiment

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/policy"
)

// foldProperties checks, against a real log and its fold want, what
// lets a fold of the query log be streamed: it keeps only set unions,
// earliest times and ORs (and one count, DomainObservation.Queries), so
// neither the order entries arrive in nor how the log is chunked can
// matter. It returns the fold of the log with every entry twice, as a
// resolver retransmitting each query would send it.
func foldProperties[M ~map[string]V, V any](t *testing.T, log []dnsserver.LogEntry, want M,
	add func(M, *dnsserver.LogEntry)) (doubled M) {
	fold := func(into M, entries []dnsserver.LogEntry) M {
		for i := range entries {
			add(into, &entries[i])
		}
		return into
	}
	if got := fold(make(M), log); !reflect.DeepEqual(got, want) {
		t.Fatal("the log does not fold to the fold under test")
	}

	t.Run("order", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			shuffled := append([]dnsserver.LogEntry(nil), log...)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if got := fold(make(M), shuffled); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: shuffled log folds differently", seed)
			}
		}
	})

	// Two logs of disjoint ids folded one after the other, either way
	// round, equal the fold of their concatenation.
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
			if got := fold(fold(make(M), parts[0]), parts[1]); !reflect.DeepEqual(got, want) {
				t.Error("two disjoint logs fold differently from their concatenation")
			}
		}
	})

	twice := make([]dnsserver.LogEntry, 0, 2*len(log))
	for _, e := range log {
		twice = append(twice, e, e)
	}
	return fold(make(M), twice)
}

// TestObservations checks the one reading of the query log against a
// real one: a small fleet probed with every behaviour-revealing policy.
func TestObservations(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(400, 19), NotifyRates())
	NewProbeCampaign(w, CoreTests[:11], campaign.Config{Workers: 24}, nil).Run(context.Background())
	log := w.Log.Entries()
	obs := w.Observations()
	if len(obs) < 100 {
		t.Fatalf("only %d MTAs observed", len(obs))
	}

	doubled := foldProperties(t, log, obs, fingerprint.Observations.Add)
	t.Run("duplicates", func(t *testing.T) {
		if !reflect.DeepEqual(doubled, obs) {
			t.Error("a doubled log changed the fold")
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
			{sp.Serial, false},
			{ll.HaltedBeforeTen(), false},
			{ll.RanAll(), false},
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
			if !o.Tested(policy.Void) || !o.PastVoidLimit() {
				continue
			}
			past++
			if opts := w.MTAs[id].Profile().SPFOptions; opts.VoidLookupLimit == 0 && !opts.Prefetch {
				t.Errorf("%s asked %d void names but is a serial validator holding the default limit", id, o.Count(policy.Void))
			}
		}
		if past == 0 {
			t.Error("no MTA went past the void limit")
		}
	})

	// The scorecard's second row, probe half: the §6 definition — any
	// attributed query makes an SPF validator — accuses nobody who was
	// not planted as one.
	t.Run("validates precision", func(t *testing.T) {
		for id := range obs {
			if !w.MTAs[id].Profile().ValidatesSPF {
				t.Errorf("%s has queries attributed to it but was not planted as SPF-validating", id)
			}
		}
	})
}

// TestDomainObservations is TestObservations for the other zone: the
// same fleet mailed instead of probed, and the NotifyEmail fold checked
// against that real log.
func TestDomainObservations(t *testing.T) {
	w := buildTestWorld(t, smallNotifySpec(400, 19), NotifyRates())
	run := RunNotifyEmail(context.Background(), w, 24)
	log := w.Log.Entries()
	obs := w.DomainObservations()
	if len(obs) < 200 {
		t.Fatalf("only %d domains observed", len(obs))
	}
	doubled := foldProperties(t, log, obs, fingerprint.DomainObservations.Add)
	t.Run("duplicates", func(t *testing.T) {
		for id, o := range doubled {
			once := *obs[id]
			if once.Queries *= 2; *o != once {
				t.Errorf("%s: a doubled log moved more than Queries: %+v, once %+v", id, o, obs[id])
			}
		}
	})

	// The scorecard's second row, mail half. A domain is accused of
	// SPF validation only if one of its MTAs was planted to validate,
	// and of stopping short (§6.1) only if the MTA that took its message
	// was planted partial.
	a := NotifyEmail(w.Population, obs, run)
	t.Run("validates precision", func(t *testing.T) {
		for _, d := range w.Population.Domains {
			v := a.Validation[d.ID]
			if !v.SPF {
				continue
			}
			planted, partial := false, false
			for _, m := range d.MTAs {
				prof := w.MTAs[m.ID].Profile()
				planted = planted || prof.ValidatesSPF
				partial = partial || prof.PartialSPF
			}
			if !planted {
				t.Errorf("%s: policy fetched, but none of its MTAs was planted as SPF-validating", d.ID)
			}
			if !v.SPFComplete && !partial {
				t.Errorf("%s: read as a partial validator, but none of its MTAs was planted partial", d.ID)
			}
		}
		if a.SPFDomains().Observed == 0 || a.PartialDomains().Observed == 0 {
			t.Errorf("vacuous: %d SPF domains, %d partial", a.SPFDomains().Observed, a.PartialDomains().Observed)
		}
	})

	// Table 5's NotifyEmail "SPF MTAs" is read off the deliveries and
	// the log. On a clean fabric it equals what the simulator's own
	// counters say — which a test may read and the analysis may not.
	t.Run("SPF MTAs equal planted counters", func(t *testing.T) {
		contacted := make(map[string]bool)
		for _, d := range w.Population.Domains {
			delivery := run.Deliveries[d.ID]
			if delivery == nil || !delivery.Delivered {
				continue
			}
			for _, m := range d.MTAs {
				if m.Addr4 == delivery.MTAAddr || m.Addr6 == delivery.MTAAddr {
					contacted[m.ID] = true
				}
			}
		}
		checked := 0
		for id := range contacted {
			if w.MTAs[id].Stats().SPFChecks > 0 {
				checked++
			}
		}
		if want := (SimpleShare{Tested: len(contacted), Observed: checked}); a.SPFMTAs != want || checked == 0 {
			t.Errorf("log-derived %d SPF MTAs of %d contacted; the MTAs' own counters say %d of %d",
				a.SPFMTAs.Observed, a.SPFMTAs.Tested, checked, len(contacted))
		}
	})
}

package experiment

import (
	"context"
	"io"
	"reflect"
	"testing"

	"sendervalid/internal/campaign"
	"sendervalid/internal/cli"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/netsim"
)

// TestStudyIndependentOfApparatus pins that what the study reports is a
// function of (domains, seed) alone. It runs RunStudy's body, so the
// SMTP-fault variant can reach each probe sweep's world. The population and every MTA's
// profile are drawn from the seed, and the query-log fold is
// idempotent and order-free, so neither the worker count, nor the time
// scale, nor SMTP faults the probe campaigns retry through may move a
// table: each variant's StudyResult must equal the baseline's, field
// by field. Two analyses are excluded, because on the wall clock
// timing decides them:
//   - Figure 2 (NotifyEmail.TimingSamples, TimingFiltered) measures
//     tSPF − tEmail on the wall clock;
//   - §7.1 (SerialParallel) infers serial or parallel lookups from
//     query timestamps, and at a small TimeScale the shaped chains it
//     reads are a fraction of a millisecond apart. The §8 vectors
//     carry the same inference as their SerialLookups trait, so they
//     are compared, and clustered again, with it masked.
//
// TestStudyIndependentOfApparatusBubble (`make synctest`) is the exact
// form: on virtual time it compares the printed report byte for byte,
// with no exclusions.
func TestStudyIndependentOfApparatus(t *testing.T) {
	study := func(workers int, timeScale float64, probing func(*World, *ProbeCampaign)) *StudyResult {
		t.Helper()
		s := &study{
			cfg:     StudyConfig{Study: cli.Study{Domains: 300, Seed: 1, Workers: workers, TimeScale: timeScale, JournalSync: "none"}},
			out:     io.Discard,
			logf:    t.Logf,
			probing: probing,
		}
		res, err := s.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := study(8, 0.001, nil)

	for _, v := range []struct {
		name      string
		workers   int
		timeScale float64
	}{
		{"workers=1", 1, 0.001},
		{"workers=4", 4, 0.001},
		{"workers=64", 64, 0.001},
		{"timescale=0.003", 8, 0.003},
	} {
		t.Run(v.name, func(t *testing.T) {
			compareStudies(t, base, study(v.workers, v.timeScale, nil))
		})
	}

	t.Run("smtp-faults", func(t *testing.T) {
		// Dial failures and mid-dialogue resets on every MTA's link,
		// at rates where the campaign's four attempts recover every
		// task.
		faults := &netsim.FaultProfile{DialFailure: 0.05, ResetRate: 0.003}
		var sweeps []*campaign.Campaign
		res := study(8, 0.001, func(w *World, pc *ProbeCampaign) {
			w.Fabric.SetChaosSeed(7)
			for _, m := range w.Population.MTAs {
				w.Fabric.SetFaults(m.Addr4, faults)
			}
			sweeps = append(sweeps, pc.Campaign)
		})
		for _, c := range sweeps {
			snap := c.Snapshot()
			if snap.Failed != 0 {
				t.Fatalf("%d of %d tasks failed under faults; retries must recover them all", snap.Failed, snap.Total)
			}
			if snap.Retried == 0 {
				t.Fatal("no attempt was retried: the fault profile injected nothing")
			}
			t.Logf("sweep: %d tasks, %d retried", snap.Total, snap.Retried)
		}
		compareStudies(t, base, res)
	})
}

// compareStudies reports every field of got that differs from want,
// one level into the analyses, outside the timing-decided exclusions
// TestStudyIndependentOfApparatus names.
func compareStudies(t *testing.T, want, got *StudyResult) {
	t.Helper()
	strip := func(r *StudyResult) StudyResult {
		c := *r
		ne := *c.NotifyEmail
		ne.TimingSamples, ne.TimingFiltered = nil, 0
		c.NotifyEmail = &ne
		c.SerialParallel = SerialParallelResult{}
		c.FingerprintVectors = make(map[string]*fingerprint.Vector, len(r.FingerprintVectors))
		for id, v := range r.FingerprintVectors {
			masked := *v
			masked.SerialLookups = fingerprint.Unknown
			c.FingerprintVectors[id] = &masked
		}
		c.Fingerprints = fingerprint.Clusters(c.FingerprintVectors)
		return c
	}
	w, g := strip(want), strip(got)
	wv, gv := reflect.ValueOf(w), reflect.ValueOf(g)
	for i := range wv.NumField() {
		name := wv.Type().Field(i).Name
		wf, gf := wv.Field(i), gv.Field(i)
		if reflect.DeepEqual(wf.Interface(), gf.Interface()) {
			continue
		}
		if wf.Kind() == reflect.Pointer && wf.Elem().Kind() == reflect.Struct && !gf.IsNil() {
			for j := range wf.Elem().NumField() {
				if !reflect.DeepEqual(wf.Elem().Field(j).Interface(), gf.Elem().Field(j).Interface()) {
					t.Errorf("%s.%s differs from the baseline run", name, wf.Elem().Type().Field(j).Name)
				}
			}
			continue
		}
		t.Errorf("%s differs from the baseline run", name)
	}
}

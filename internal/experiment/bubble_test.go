//go:build goexperiment.synctest

package experiment

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"testing/synctest"

	"sendervalid/internal/campaign"
	"sendervalid/internal/cli"
	"sendervalid/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/report-4000.golden from TestStudyBubble's run")

// reportGolden is `experiment -domains 4000 -seed 1 -workers 8` at paper
// timing: the study's whole stdout, its virtual "completed in" included.
const reportGolden = "testdata/report-4000.golden"

// bubbleStudy runs the study at -domains 4000 -seed 1 and paper timing
// (TimeScale 1.0: the 100 ms and 800 ms shaping and every budget at
// their paper values) inside a testing/synctest bubble, where every
// goroutine runs on virtual time, and returns its stdout. The run
// finishes only if nothing in it waits on the host: a goroutine blocked
// in a socket read is never durably blocked, so the bubble's clock
// would never advance. probing is the study's seam (see study.probing).
func bubbleStudy(t *testing.T, workers int, probing func(*World, *ProbeCampaign)) string {
	t.Helper()
	var out bytes.Buffer
	synctest.Run(func() {
		s := &study{
			cfg:     StudyConfig{Study: cli.Study{Domains: 4000, Seed: 1, Workers: workers, TimeScale: 1.0, JournalSync: "none"}},
			out:     &out,
			logf:    func(format string, args ...any) { t.Errorf("the study warned: "+format, args...) },
			probing: probing,
		}
		if _, err := s.run(context.Background()); err != nil {
			t.Errorf("the study in a bubble: %v", err)
		}
	})
	return out.String()
}

// TestStudyBubble holds the study's report to reportGolden byte for
// byte. In a bubble the report is a function of (-domains, -seed)
// alone, so any changed byte is a changed result: a deliberate one is
// recorded with -update and shows as the golden file's diff. `make
// synctest` runs it, and so does tier-1 through TestStudyBubbleGolden.
func TestStudyBubble(t *testing.T) {
	got := bubbleStudy(t, 8, nil)
	if *update {
		if err := os.WriteFile(reportGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatal(err)
	}
	if diff := lineDiff(string(want), got); diff != "" {
		t.Errorf("the report differs from %s (rerun with -update to accept):\n%s", reportGolden, diff)
	}
}

// TestStudyIndependentOfApparatusBubble is the exact form of
// TestStudyIndependentOfApparatus: on virtual time, neither the worker
// count nor SMTP faults the probe campaigns retry through may move a
// byte of the report, Figure 2 and §7.1 included. Only the
// "completed in" line, the campaign's virtual duration, may differ.
func TestStudyIndependentOfApparatusBubble(t *testing.T) {
	golden, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := withoutCompletedIn(string(golden))
	for _, workers := range []int{1, 24} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if diff := lineDiff(want, withoutCompletedIn(bubbleStudy(t, workers, nil))); diff != "" {
				t.Errorf("the report differs from %s:\n%s", reportGolden, diff)
			}
		})
	}
	t.Run("smtp-faults", func(t *testing.T) {
		// Dial failures and mid-dialogue resets on every MTA's link, at
		// rates where the campaign's four attempts recover every task.
		// A task that fails all four is a lost measurement, not a
		// retried one: at 4000 domains the wall-clock variant's 0.05 and
		// 0.003 fail ≈7% of attempts, and ≈2 of the 68,592 tasks.
		faults := &netsim.FaultProfile{DialFailure: 0.01, ResetRate: 0.0005}
		var sweeps []*campaign.Campaign
		got := bubbleStudy(t, 8, func(w *World, pc *ProbeCampaign) {
			w.Fabric.SetChaosSeed(7)
			for _, m := range w.Population.MTAs {
				w.Fabric.SetFaults(m.Addr4, faults)
			}
			sweeps = append(sweeps, pc.Campaign)
		})
		retried := 0
		for _, c := range sweeps {
			snap := c.Snapshot()
			if snap.Failed != 0 {
				t.Errorf("%d of %d tasks failed under faults; retries must recover them all", snap.Failed, snap.Total)
			}
			retried += snap.Retried
			t.Logf("sweep: %d tasks, %d attempts, %d retried", snap.Total, snap.Attempts, snap.Retried)
		}
		if retried == 0 {
			t.Error("no attempt was retried: the fault profile injected nothing")
		}
		if diff := lineDiff(want, withoutCompletedIn(got)); diff != "" {
			t.Errorf("the report differs from %s:\n%s", reportGolden, diff)
		}
	})
}

var completedIn = regexp.MustCompile(`(?m)^completed in .*\n`)

// withoutCompletedIn drops the report's virtual-duration line.
func withoutCompletedIn(report string) string {
	return completedIn.ReplaceAllString(report, "")
}

// lineDiff lists the lines where got differs from want, by line number,
// or returns "" when they are equal.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n   got %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}

//go:build goexperiment.synctest

package experiment

import (
	"context"
	"io"
	"testing"
	"testing/synctest"
	"time"

	"sendervalid/internal/cli"
)

// TestStudyBubble runs the whole study at paper timing — TimeScale 1.0,
// the 100 ms / 800 ms / 15 s shaping unscaled — inside a
// testing/synctest bubble, where every goroutine runs on virtual time.
// It finishes only if nothing in the study waits on the host: a
// goroutine blocked in a socket read is never durably blocked, so the
// bubble's clock would never advance. `make synctest` runs it.
func TestStudyBubble(t *testing.T) {
	synctest.Run(func() {
		start := time.Now()
		cfg := StudyConfig{Study: cli.Study{Domains: 20, Seed: 1, Workers: 8, TimeScale: 1.0, JournalSync: "none"}}
		if _, err := RunStudy(context.Background(), cfg, io.Discard, io.Discard); err != nil {
			t.Errorf("RunStudy in a bubble: %v", err)
		}
		t.Logf("the study took %v of virtual time", time.Since(start))
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/cli"
	"sendervalid/internal/wal"
)

// The process-level half of the crash harness re-executes this test
// binary as the campaign command itself (the helper-process pattern),
// so a real process is SIGKILLed mid-run — torn journal tails, lost
// in-flight probes, dead flusher goroutines and all — without needing
// a separate `go build` step.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_CRASH_CHILD") == "1" {
		// Everything after "--" is the campaign's own command line.
		args := os.Args[1:]
		for i, a := range args {
			if a == "--" {
				args = args[i+1:]
				break
			}
		}
		os.Exit(run(cli.SignalContext(), args, os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// chaosSeed returns the seed for the kill schedule and injected
// faults, overridable via CHAOS_SEED (the same knob as `make chaos`),
// and always logs it so a failure is reproducible.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(42)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("CHAOS_SEED=%d (override with the env var to reproduce)", seed)
	return seed
}

// child starts this binary as a campaign process with the given args.
func child(t *testing.T, args []string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
	cmd.Env = append(os.Environ(), "CAMPAIGN_CRASH_CHILD=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	return cmd, &out
}

// runToCompletion runs a child and fails the test if it exits nonzero.
func runToCompletion(t *testing.T, args []string) string {
	t.Helper()
	cmd, out := child(t, args)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child failed: %v\n%s", err, out.String())
	}
	return out.String()
}

// fileSize returns the journal's current size (0 if absent).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// killWhenGrown SIGKILLs the child once the journal has grown past
// target bytes. It returns true if the kill landed, false if the child
// completed first.
func killWhenGrown(t *testing.T, cmd *exec.Cmd, out *bytes.Buffer, path string, target int64) bool {
	t.Helper()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(3 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("child exited with error before kill: %v\n%s", err, out.String())
			}
			return false
		case <-deadline:
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("child made no progress (journal at %d bytes, wanted %d)\n%s",
				fileSize(path), target, out.String())
		case <-tick.C:
			if fileSize(path) >= target {
				if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no final sync
					t.Fatalf("kill: %v", err)
				}
				<-exited
				return true
			}
		}
	}
}

// journalEvent mirrors the journal's line schema for raw event-level
// accounting (the campaign package's replayer deduplicates per key,
// which would hide a double completion).
type journalEvent struct {
	Ev  string       `json:"ev"`
	Key campaign.Key `json:"k"`
}

// readJournalRaw streams every segment of the WAL journal and returns
// the replay plus a per-key count of final (done/failed) events.
func readJournalRaw(t *testing.T, path string) (*campaign.Replay, map[campaign.Key]int) {
	t.Helper()
	s, err := wal.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var all bytes.Buffer
	if _, err := io.Copy(&all, s); err != nil {
		t.Fatal(err)
	}
	finals := make(map[campaign.Key]int)
	for _, line := range bytes.Split(all.Bytes(), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var e journalEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("unparseable journal line %q: %v", line, err)
		}
		if e.Ev == "done" || e.Ev == "failed" {
			finals[e.Key]++
		}
	}
	replay, err := campaign.ReadJournal(bytes.NewReader(all.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return replay, finals
}

// TestKillResumeConvergence is the acceptance proof for the WAL
// journal: SIGKILL a real campaign process mid-run — repeatedly, under
// seeded network chaos — then resume, and the final durable state must
// match an uninterrupted run's: every (MTA, test) pair reaches exactly
// one final state, none lost, none run twice to completion.
func TestKillResumeConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash harness; skipped in -short")
	}
	seed := chaosSeed(t)
	dir := t.TempDir()
	common := []string{
		"-domains", "30", "-tests", "t01,t03",
		"-rate", "0", "-interval", "0",
		// Attempt budget deep enough that a 0.25 dial-failure rate
		// cannot realistically exhaust it: every pair ends done, which
		// makes the reference and killed runs' snapshots comparable.
		"-attempts", "12",
		"-chaos-seed", strconv.FormatInt(seed, 10),
		"-chaos-dial-failure", "0.25",
	}

	// Uninterrupted reference run.
	ref := filepath.Join(dir, "ref.wal")
	runToCompletion(t, append(append([]string{}, common...), "-journal", ref))
	refReplay, refFinals := readJournalRaw(t, ref)
	total := len(refReplay.Final)
	if total == 0 {
		t.Fatal("reference run recorded no finished pairs")
	}
	if refReplay.Failed() != 0 {
		t.Fatalf("reference run had %d failed pairs; the convergence comparison needs a fully-succeeding schedule", refReplay.Failed())
	}
	for k, n := range refFinals {
		if n != 1 {
			t.Fatalf("reference run finished %v %d times", k, n)
		}
	}

	// Kill/resume rounds against one journal. The journal grows by one
	// line per attempt outcome, so the reference run's journal size is
	// the scale of a whole sweep. The seeded RNG picks how far past the
	// previous round's high-water mark each kill lands, between 1/10
	// and 4/15 of that size. The kills spread from the first outcomes
	// to the last, and three steps reach at most 4/5 of a sweep, so at
	// least three kills land before a round can complete (the killed
	// runs retry about as often as the reference run did).
	refSize := fileSize(ref)
	rng := mrand.New(mrand.NewSource(seed))
	jp := filepath.Join(dir, "kill.wal")
	kills := 0
	for round := 0; round < 5; round++ {
		args := append(append([]string{}, common...), "-journal", jp)
		if round > 0 {
			args = append(args, "-resume")
		}
		target := fileSize(jp) + refSize/10 + rng.Int63n(refSize/6)
		cmd, out := child(t, args)
		if !killWhenGrown(t, cmd, out, jp, target) {
			break // completed before the kill could land
		}
		kills++
	}
	if kills < 3 {
		t.Fatalf("only %d kills landed (reference journal %d bytes); the harness needs at least 3 to exercise crashes", kills, refSize)
	}
	t.Logf("killed the campaign %d times (reference journal %d bytes)", kills, refSize)

	// Final resume must drive the journal to convergence — and say that
	// its closing summary covers only the pairs it ran itself.
	before, _ := readJournalRaw(t, jp)
	pruned := len(before.Final)
	out := runToCompletion(t, append(append([]string{}, common...), "-journal", jp, "-resume"))
	t.Logf("final resume output:\n%s", out)
	caveat := fmt.Sprintf("campaign: resumed run: %d pairs were finished by an earlier process and left no queries in this process's log; the summary below covers the %d pairs run now\n",
		pruned, total-pruned)
	switch {
	case pruned == 0 || pruned == total:
		t.Logf("no partial summary to warn about (%d of %d pairs finished before the final resume)", pruned, total)
	case !strings.Contains(out, caveat):
		t.Errorf("resumed run did not warn that its summary is partial; want the line %q", caveat)
	}

	replay, finals := readJournalRaw(t, jp)
	if got := len(replay.Final); got != total {
		t.Fatalf("converged journal records %d finished pairs, reference %d", got, total)
	}
	for k := range refReplay.Final {
		n, ok := finals[k]
		if !ok {
			t.Errorf("pair %v lost: finished in reference, never in killed run", k)
			continue
		}
		if n != 1 {
			t.Errorf("pair %v completed %d times (duplicated completion)", k, n)
		}
	}
	if replay.Done() != refReplay.Done() || replay.Failed() != refReplay.Failed() {
		t.Fatalf("final snapshot diverges: done %d failed %d, reference done %d failed %d",
			replay.Done(), replay.Failed(), refReplay.Done(), refReplay.Failed())
	}
	// The resumed processes must have recovered, not resynced: a WAL
	// journal never contains a malformed payload line.
	if replay.Malformed != 0 {
		t.Fatalf("converged journal contains %d malformed lines", replay.Malformed)
	}
}

// TestUsageErrors: a flag value the campaign would misread or not run
// with is refused before anything starts: so the count the start line
// prints is the one that runs, no world is built on a scale it cannot
// draw delays from, and no pair probes a policy no zone serves.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-workers", "0", "campaign: -workers must be at least 1, got 0\n"},
		{"-workers", "-3", "campaign: -workers must be at least 1, got -3\n"},
		{"-timescale", "-1", "campaign: -timescale must be a positive finite number, got -1\n"},
		{"-timescale", "0", "campaign: -timescale must be a positive finite number, got 0\n"},
		{"-timescale", "NaN", "campaign: -timescale must be a positive finite number, got NaN\n"},
		{"-timescale", "-Inf", "campaign: -timescale must be a positive finite number, got -Inf\n"},
		{"-domains", "0", "campaign: -domains must be at least 1, got 0\n"},
		{"-tests", "t99,bogus", "campaign: -tests: \"t99\" is not a catalog test ID (t01–t39), core or all\n"},
		{"-tests", "t01,t02,t01", "campaign: -tests: \"t01\" is listed twice\n"},
		{"-tests", "t01,,t02", "campaign: -tests: \"\" is not a catalog test ID (t01–t39), core or all\n"},
		{"-rate", "-1", "campaign: -rate must be at least 0, got -1\n"},
		{"-rate", "NaN", "campaign: -rate must be at least 0, got NaN\n"},
		{"-attempts", "0", "campaign: -attempts must be at least 1, got 0\n"},
		{"-chaos-dial-failure", "1.5", "campaign: -chaos-dial-failure must be in [0, 1], got 1.5\n"},
		{"-chaos-dial-failure", "-0.1", "campaign: -chaos-dial-failure must be in [0, 1], got -0.1\n"},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-domains", "20", "-tests", "t01", "-interval", "0", tc.flag, tc.value}
		code := run(context.Background(), args, nil, &stdout, &stderr)
		if code != cli.ExitUsage || stdout.Len() != 0 || stderr.String() != tc.want {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want %d and %q", args, code, stdout.String(), stderr.String(), cli.ExitUsage, tc.want)
		}
	}
}

// TestChildUsageError keeps the helper-process plumbing honest: a bad
// flag must surface as a nonzero exit, proving the child really runs
// the campaign main and its exit codes propagate.
func TestChildUsageError(t *testing.T) {
	cmd, out := child(t, []string{"-definitely-not-a-flag"})
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("child accepted a bogus flag\n%s", out.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("unexpected child failure mode: %v", err)
	}
}

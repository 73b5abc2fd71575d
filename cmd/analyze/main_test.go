package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sendervalid/internal/cli"
	"sendervalid/internal/experiment"
)

// TestAnalyzeExperimentLog closes the collect → analyse loop: the query
// log a study saves with -log-out, read back by this command, must
// reproduce the behaviour sections the study itself printed from
// memory.
func TestAnalyzeExperimentLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "queries.jsonl")
	cfg := experiment.StudyConfig{
		Study:  cli.Study{Domains: 120, Seed: 1, Workers: 8, TimeScale: 0.001, JournalSync: "none"},
		LogOut: logPath,
	}
	var study bytes.Buffer
	if _, err := experiment.RunStudy(context.Background(), cfg, &study, io.Discard); err != nil {
		t.Fatal(err)
	}
	// What the study printed between Figure 5 and the log-written line,
	// with its top-8 fingerprint cut.
	_, behaviours, ok := strings.Cut(study.String(), "\n\nFigure 5")
	if !ok {
		t.Fatalf("study output has no Figure 5:\n%s", study.String())
	}
	behaviours, _, _ = strings.Cut("Figure 5"+behaviours, "query log written to")

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-log", logPath, "-fingerprints", "8"}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	head, rest, _ := strings.Cut(stdout.String(), "\n\n")
	if !regexp.MustCompile(`^log: \d+ queries \(\d+ attributed\) from \d+ MTAs across 12 test policies$`).MatchString(head) {
		t.Errorf("summary line %q", head)
	}
	if rest != behaviours {
		t.Errorf("offline analysis differs from the study's own:\n--- analyze\n%s\n--- experiment\n%s", rest, behaviours)
	}
	if !strings.Contains(stderr.String(), "analyze: ingested ") {
		t.Errorf("no ingest report on stderr: %s", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-definitely-not-a-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, nil, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-log", "/does/not/exist.jsonl"}, nil, &stdout, &stderr); code != 1 {
		t.Errorf("unreadable log: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

// Command experiment runs the full study end to end in one process —
// synthesizing authoritative DNS, a simulated MTA fleet calibrated to
// the paper's behaviour rates, and all three experiments — and prints
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	experiment [-domains 2000] [-seed 1] [-workers 64] [-timescale 0.001]
//	           [-all-tests] [-paper-scale] [-log-out queries.jsonl]
//	           [-journal PREFIX] [-journal-sync none|interval|always] [-resume]
//	           [-metrics-addr 127.0.0.1:9153]
//	           [-trace-file spans.wal] [-trace-sample 1] [-trace-slow 50ms]
//
// -paper-scale uses the full dataset sizes (26,695 / 22,548 domains);
// expect a long run and tens of thousands of goroutines.
//
// -journal PREFIX journals the two probe experiments to
// PREFIX.notifymx.jsonl and PREFIX.twoweekmx.jsonl; with -resume an
// interrupted run (same -domains/-seed) skips every (MTA, test) pair a
// journal already records as finished. Populations and MTA behaviour
// are rebuilt deterministically from the seed, so the journal keys
// stay valid across processes. The NotifyEmail deliveries are not
// journaled and run again.
package main

import (
	"context"
	"flag"
	"io"
	"os"

	"sendervalid/internal/cli"
	"sendervalid/internal/experiment"
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is flags → StudyConfig → RunStudy; the study itself lives in
// internal/experiment.
func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := studyFlags(fs)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	_, err := experiment.RunStudy(ctx, *cfg, stdout, stderr)
	return cli.Exit(ctx, cli.Logf(stderr, "experiment"), err)
}

// studyFlags binds one flag to each StudyConfig field.
func studyFlags(fs *flag.FlagSet) *experiment.StudyConfig {
	cfg := &experiment.StudyConfig{}
	cfg.Study.Register(fs)
	fs.BoolVar(&cfg.AllTests, "all-tests", false, "probe all 39 policies instead of the reported core set")
	fs.BoolVar(&cfg.PaperScale, "paper-scale", false, "use the paper's full dataset sizes (overrides -domains)")
	fs.StringVar(&cfg.LogOut, "log-out", "", "write the TwoWeekMX query log (JSON lines) for offline analysis with cmd/analyze")
	return cfg
}

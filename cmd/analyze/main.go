// Command analyze runs the study's offline analyses over a saved
// query log (JSON lines, as written by `experiment -log-out` or
// QueryLog.WriteJSON). This mirrors the real study's workflow: the
// authoritative server records raw queries during collection, and the
// behaviour analyses — serial/parallel classification, lookup-limit
// CDF, the §7.3 catalog, and validator fingerprinting — run afterwards
// over the file, repeatably.
//
// With -trace, a span stream recorded by any command's -trace-file
// flag is reassembled into per-trace trees and joined against the
// query log: wire spans carrying dns.name/dns.type attributes claim
// the logged queries they elicited, yielding per-(MTA, test) lookup
// counts.
//
// Usage:
//
//	analyze -log queries.jsonl [-fingerprints 10]
//	        [-trace spans.wal] [-trace-trees 10]
//
// The log is decoded on GOMAXPROCS goroutines and delivered in file
// order, so the output does not depend on the core count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sendervalid/internal/cli"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/policy"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

// meteredReader counts the bytes flowing out of the log file and sizes
// each read into a histogram, so ingest throughput can be reported
// from the same instruments the serving layers use.
type meteredReader struct {
	r     io.Reader
	bytes telemetry.Counter
	reads *telemetry.Histogram
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	if n > 0 {
		m.bytes.Add(uint64(n))
		m.reads.Observe(float64(n))
	}
	return n, err
}

// warnTorn reports crash loss in a WAL-backed input: bytes past the
// valid frame prefix of some segment that the reader had to skip.
func warnTorn(w io.Writer, what string, st wal.RecoverStats) {
	if st.Truncated {
		fmt.Fprintf(w,
			"analyze: WARNING: %d bytes of torn/corrupt WAL tail skipped (%d framed records salvaged) — the %s lost records at a crash\n",
			st.DroppedBytes, st.Records, what)
	}
}

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logPath   = fs.String("log", "", "query log file (JSON lines; required)")
		topFP     = fs.Int("fingerprints", 10, "behaviour families to show")
		tracePath = fs.String("trace", "",
			"span stream (as written by -trace-file) to reassemble and join against the query log")
		traceMax = fs.Int("trace-trees", 10, "trace trees to print with -trace (0 = all)")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *logPath == "" {
		fs.Usage()
		return cli.ExitUsage
	}
	fail := func(err error) int { return cli.Exit(ctx, cli.Logf(stderr, "analyze"), err) }
	// wal.OpenStream handles every on-disk shape the collectors produce:
	// plain JSONL, WAL-framed records, rotated segments, or a mix —
	// sniffed per segment, presented as one JSONL stream.
	f, err := wal.OpenStream(*logPath)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	if n := f.Segments(); n > 1 {
		fmt.Fprintf(stderr, "analyze: reading %d log segments\n", n)
	}

	// Stream the log rather than slurping it: each attributed entry is
	// folded into its MTA's observation and dropped, so memory is
	// O(MTAs); only -trace's span join needs the entries themselves.
	// Decoding fans out over GOMAXPROCS goroutines; entries still
	// arrive in file order.
	obs := make(fingerprint.Observations)
	var entries []dnsserver.LogEntry // retained for the -trace join only
	var ingested telemetry.Counter
	total, attributed := 0, 0
	mtas := map[string]bool{}
	tests := map[string]bool{}
	mr := &meteredReader{r: f, reads: telemetry.NewHistogram(telemetry.SizeBuckets)}
	ingestStart := time.Now()
	err = dnsserver.ParForEachLogJSONOrdered(mr, 0, func(e dnsserver.LogEntry) error {
		total++
		ingested.Inc()
		// The sets keep clones: a decoded string keeps its chunk's
		// strings alive.
		if e.TestID != "" && !tests[e.TestID] {
			tests[strings.Clone(e.TestID)] = true
		}
		if e.MTAID != "" {
			if !mtas[e.MTAID] {
				mtas[strings.Clone(e.MTAID)] = true
			}
			attributed++
			obs.Add(&e)
			if *tracePath != "" {
				entries = append(entries, e)
			}
		}
		return ctx.Err() // an interrupt ends the ingest
	})
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(ingestStart)
	warnTorn(stderr, "log", f.Stats())
	reads := mr.reads.Snapshot()
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(stderr,
		"analyze: ingested %d entries (%.1f MB) in %v — %.0f entries/s, %.1f MB/s, mean read %.0f B across %d reads\n",
		ingested.Value(), float64(mr.bytes.Value())/1e6, elapsed.Round(time.Millisecond),
		float64(ingested.Value())/secs, float64(mr.bytes.Value())/1e6/secs,
		reads.Mean(), reads.Count)
	fmt.Fprintf(stdout, "log: %d queries (%d attributed) from %d MTAs across %d test policies\n\n",
		total, attributed, len(mtas), len(tests))

	sp := experiment.SerialParallel(obs)
	ll := experiment.LookupLimits(obs)
	b := experiment.Behaviors(obs)
	if len(ll.QueriesPerMTA) > 0 {
		fmt.Fprint(stdout, experiment.RenderFigure5(ll, policy.LimitsDelay.Seconds()))
	}
	fmt.Fprint(stdout, experiment.RenderBehaviors(sp, b))

	clusters, vectors := experiment.Fingerprints(obs)
	fmt.Fprint(stdout, experiment.RenderFingerprints(clusters, vectors, *topFP))

	if *tracePath != "" {
		recs, bad, st, err := loadSpans(*tracePath)
		if err != nil {
			return fail(fmt.Errorf("reading trace file: %w", err))
		}
		warnTorn(stderr, "trace file", st)
		if bad > 0 {
			fmt.Fprintf(stderr, "analyze: %d undecodable span lines skipped\n", bad)
		}
		fmt.Fprintln(stdout)
		renderTraceTrees(stdout, recs, entries, *traceMax)
	}
	return cli.ExitOK
}

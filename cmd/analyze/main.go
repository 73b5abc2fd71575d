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
//	analyze -log queries.jsonl [-fingerprints 10] [-workers N]
//	        [-trace spans.wal] [-trace-trees 10]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
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
	var (
		logPath = flag.String("log", "", "query log file (JSON lines; required)")
		topFP   = flag.Int("fingerprints", 10, "behaviour families to show")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0),
			"parallel log-decode workers (1 = serial)")
		tracePath = flag.String("trace", "",
			"span stream (as written by -trace-file) to reassemble and join against the query log")
		traceMax = flag.Int("trace-trees", 10, "trace trees to print with -trace (0 = all)")
	)
	flag.Parse()
	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// wal.OpenStream handles every on-disk shape the collectors produce:
	// plain JSONL, WAL-framed records, rotated segments, or a mix —
	// sniffed per segment, presented as one JSONL stream.
	f, err := wal.OpenStream(*logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if n := f.Segments(); n > 1 {
		fmt.Fprintf(os.Stderr, "analyze: reading %d log segments\n", n)
	}

	// Stream the log rather than slurping it: every analysis below
	// ignores queries it cannot attribute to an MTA, so only the
	// attributed subset is retained in memory. Decoding fans out over
	// -workers goroutines; the ordered merge delivers entries in file
	// order, so the output is identical to a serial scan at any worker
	// count.
	var entries []dnsserver.LogEntry
	var ingested telemetry.Counter
	total := 0
	mtas := map[string]bool{}
	tests := map[string]bool{}
	mr := &meteredReader{r: f, reads: telemetry.NewHistogram(telemetry.SizeBuckets)}
	ingestStart := time.Now()
	err = dnsserver.ParForEachLogJSONOrdered(mr, *workers, func(e dnsserver.LogEntry) error {
		total++
		ingested.Inc()
		if e.TestID != "" {
			tests[e.TestID] = true
		}
		if e.MTAID != "" {
			mtas[e.MTAID] = true
			entries = append(entries, e)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(ingestStart)
	warnTorn(os.Stderr, "log", f.Stats())
	reads := mr.reads.Snapshot()
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(os.Stderr,
		"analyze: ingested %d entries (%.1f MB) in %v — %.0f entries/s, %.1f MB/s, mean read %.0f B across %d reads\n",
		ingested.Value(), float64(mr.bytes.Value())/1e6, elapsed.Round(time.Millisecond),
		float64(ingested.Value())/secs, float64(mr.bytes.Value())/1e6/secs,
		reads.Mean(), reads.Count)
	fmt.Printf("log: %d queries (%d attributed) from %d MTAs across %d test policies\n\n",
		total, len(entries), len(mtas), len(tests))

	sp := experiment.AnalyzeSerialParallelEntries(entries)
	ll := experiment.AnalyzeLookupLimitsEntries(entries)
	b := experiment.AnalyzeBehaviorsEntries(entries)
	if ll.Tested > 0 {
		fmt.Print(experiment.RenderFigure5(ll, policy.LimitsDelay.Seconds()))
	}
	fmt.Print(experiment.RenderBehaviors(sp, b))

	clusters, vectors := experiment.AnalyzeFingerprintEntries(entries)
	fmt.Print(experiment.RenderFingerprints(clusters, vectors, *topFP))

	if *tracePath != "" {
		recs, bad, st, err := loadSpans(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: reading trace file: %v\n", err)
			os.Exit(1)
		}
		warnTorn(os.Stderr, "trace file", st)
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "analyze: %d undecodable span lines skipped\n", bad)
		}
		fmt.Println()
		renderTraceTrees(os.Stdout, recs, entries, *traceMax)
	}
}

// Command spfcheck evaluates SPF (RFC 7208) against a DNS server, in
// one of two modes:
//
// Single tuple: evaluate one connection and print the check_host()
// result and lookup counters.
//
//	spfcheck -ip 192.0.2.1 -from user@example.com [-helo mail.example.com]
//	         [-server 127.0.0.1:53] [-limit 10] [-void 2] [-prefetch]
//	         [-tolerate-syntax] [-follow-multiple] [-timeout 20s]
//	         [-trace-file spans.wal] [-trace-sample 1] [-trace-slow 50ms]
//
// Bulk: stream JSONL tuples ({"ip":..., "mail_from":..., "helo":...,
// "domain":...}) from -input (a path, or "-" for stdin) through a
// concurrent worker pool sharing one resolver, writing one JSONL
// result per line to stdout in input order and a throughput summary to
// stderr.
//
//	spfcheck -server 127.0.0.1:53 -input tuples.jsonl [-workers N]
//
// With -trace-file, every evaluation (and, in bulk mode, every tuple)
// roots a trace whose resolver spans join against the authoritative
// server's query log via `analyze -trace`.
//
// Without -server, the system resolver cannot be used (this module is
// self-contained), so a server address is required.
//
// Exit codes:
//
//	0  every evaluation was definitive (pass, fail, softfail, neutral,
//	   none, or permerror-free input)
//	1  at least one temperror: a transient DNS failure — retry later
//	2  usage error: bad flags or unreadable input
//	3  at least one permerror or unparseable input line (and no
//	   temperror): the policy or the input is broken — retrying will
//	   not help
//
// A bulk run interrupted by SIGINT/SIGTERM exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"sendervalid/internal/bulkspf"
	"sendervalid/internal/cli"
	"sendervalid/internal/resolver"
	"sendervalid/internal/smtp"
	"sendervalid/internal/spf"
	"sendervalid/internal/trace"
)

// Exit codes; see the command comment.
const (
	exitOK        = 0
	exitTempError = 1
	exitUsage     = 2
	exitPermError = 3
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spfcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ipFlag     = fs.String("ip", "", "connecting client IP (single-tuple mode)")
		fromFlag   = fs.String("from", "", "MAIL FROM address (single-tuple mode)")
		heloFlag   = fs.String("helo", "", "HELO/EHLO domain (default: From domain)")
		serverFlag = fs.String("server", "", "DNS server address ip:port (required)")
		inputFlag  = fs.String("input", "", "bulk mode: JSONL tuple file, or - for stdin")
		workers    = fs.Int("workers", 0, "bulk mode: concurrent evaluations (0 = GOMAXPROCS)")
		limitFlag  = fs.Int("limit", 0, "DNS lookup limit (0 = RFC default 10, -1 = unlimited)")
		voidFlag   = fs.Int("void", 0, "void lookup limit (0 = RFC default 2, -1 = unlimited)")
		prefetch   = fs.Bool("prefetch", false, "resolve mechanisms in parallel (the 3% behaviour)")
		tolerate   = fs.Bool("tolerate-syntax", false, "continue past syntax errors (a violation)")
		followMany = fs.Bool("follow-multiple", false, "follow the first of multiple SPF records (a violation)")
		timeoutS   = fs.Duration("timeout", 20*time.Second, "per-evaluation timeout")
	)
	var traceFlags cli.Trace
	traceFlags.Register(fs)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *serverFlag == "" {
		fmt.Fprintln(stderr, "spfcheck: -server is required")
		fs.Usage()
		return exitUsage
	}
	if *timeoutS <= 0 {
		// spf.Options reads a zero Timeout as its default, so a
		// non-positive flag would silently run with 20s.
		fmt.Fprintf(stderr, "spfcheck: -timeout must be positive, got %v\n", *timeoutS)
		return exitUsage
	}
	tracing, err := traceFlags.Open(cli.Logf(stderr, "spfcheck"))
	if err != nil {
		fmt.Fprintf(stderr, "spfcheck: %v\n", err)
		return exitUsage
	}
	defer tracing.Close()
	opts := spf.Options{
		LookupLimit:           *limitFlag,
		VoidLookupLimit:       *voidFlag,
		Prefetch:              *prefetch,
		IgnoreSyntaxErrors:    *tolerate,
		FollowMultipleRecords: *followMany,
		Timeout:               *timeoutS,
	}
	res := resolver.New(resolver.Config{Server: *serverFlag})

	if *inputFlag != "" {
		if *ipFlag != "" || *fromFlag != "" {
			fmt.Fprintln(stderr, "spfcheck: -input (bulk mode) excludes -ip/-from")
			return exitUsage
		}
		return runBulk(ctx, res, opts, tracing.Tracer, *inputFlag, *workers, stdin, stdout, stderr)
	}

	if *ipFlag == "" || *fromFlag == "" {
		fmt.Fprintln(stderr, "spfcheck: need -ip and -from (or -input for bulk mode)")
		fs.Usage()
		return exitUsage
	}
	ip, err := netip.ParseAddr(*ipFlag)
	if err != nil {
		fmt.Fprintf(stderr, "spfcheck: bad -ip: %v\n", err)
		return exitUsage
	}
	domain := smtp.DomainOf(*fromFlag)
	if domain == "" {
		domain = *fromFlag
	}
	helo := *heloFlag
	if helo == "" {
		helo = domain
	}
	checker := &spf.Checker{Resolver: res, Options: opts}
	// Single-tuple mode roots the trace here so the SPF checker's and
	// resolver's spans all share one trace ID.
	ctx, sp := tracing.Tracer.Start(ctx, "spfcheck")
	if sp != nil {
		sp.SetAttr("ip", ip.String())
		sp.SetAttr("domain", domain)
	}
	out := checker.CheckHost(ctx, ip, domain, *fromFlag, helo)
	if sp != nil {
		sp.SetAttr("result", string(out.Result))
		sp.SetError(out.Err)
		sp.End()
	}
	fmt.Fprintf(stdout, "result:       %s\n", out.Result)
	fmt.Fprintf(stdout, "dns lookups:  %d\n", out.Lookups)
	fmt.Fprintf(stdout, "void lookups: %d\n", out.VoidLookups)
	if out.Explanation != "" {
		fmt.Fprintf(stdout, "explanation:  %s\n", out.Explanation)
	}
	if out.Err != nil {
		fmt.Fprintf(stdout, "detail:       %v\n", out.Err)
	}
	switch out.Result {
	case spf.TempError:
		return exitTempError
	case spf.PermError:
		return exitPermError
	}
	return exitOK
}

// runBulk streams tuples through the bulkspf pipeline and maps the
// aggregate outcome onto the exit codes.
func runBulk(ctx context.Context, res *resolver.Resolver, opts spf.Options, tracer *trace.Tracer, input string, workers int, stdin io.Reader, stdout, stderr io.Writer) int {
	in := stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			fmt.Fprintf(stderr, "spfcheck: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		in = f
	}
	eval := bulkspf.New(bulkspf.Config{
		Resolver: res,
		SPF:      opts,
		Workers:  workers,
		Tracer:   tracer,
	})
	stats, err := eval.Run(ctx, in, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "spfcheck: %v\n", err)
		if ctx.Err() != nil {
			return cli.ExitInterrupted
		}
		return exitUsage
	}
	total := stats.Evaluated + stats.Errored
	secs := stats.Elapsed.Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(total) / secs
	}
	fmt.Fprintf(stderr, "spfcheck: %d tuples in %v (%.0f/s), %d input errors, results: %v\n",
		total, stats.Elapsed.Round(time.Millisecond), rate, stats.Errored, formatResults(stats))
	switch {
	case stats.Results[spf.TempError] > 0:
		return exitTempError
	case stats.Results[spf.PermError] > 0:
		return exitPermError
	}
	return exitOK
}

// formatResults renders the result histogram in a stable order.
func formatResults(stats bulkspf.Stats) string {
	out := ""
	for _, r := range []spf.Result{spf.Pass, spf.Fail, spf.SoftFail, spf.Neutral, spf.None, spf.TempError, spf.PermError} {
		if n := stats.Results[r]; n > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", r, n)
		}
	}
	if out == "" {
		out = "(none)"
	}
	return out
}

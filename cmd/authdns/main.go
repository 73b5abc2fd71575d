// Command authdns runs the study's synthesizing authoritative DNS
// server standalone: the full 39-policy catalog under the test zone
// and the NotifyEmail zone, with per-policy response shaping. Every
// query is logged to stdout with its (testid, mtaid) attribution, and
// -metrics-addr exposes the admin plane (/metrics, /healthz, /statusz,
// /debug/pprof) on its own listener.
//
// Usage:
//
//	authdns [-addr 127.0.0.1:5300] [-addr6 "[::1]:5300"]
//	        [-suffix spf-test.dns-lab.example] [-notify dsav-mail.dns-lab.example]
//	        [-contact research@dns-lab.example] [-timescale 1.0]
//	        [-sender4 203.0.113.10] [-sender6 2001:db8:1::10]
//	        [-quiet] [-max-qps 0] [-burst 8] [-log-buffer 4096]
//	        [-log-file queries.wal] [-log-sync none|interval|always]
//	        [-log-rotate BYTES] [-metrics-addr 127.0.0.1:9153]
//	        [-trace-file spans.wal] [-trace-sample 1] [-trace-slow 50ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"sendervalid/internal/cli"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/wal"
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run serves until ctx is cancelled (SIGINT/SIGTERM in main), then
// shuts down in order and prints the final counters.
func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("authdns", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:5300", "IPv4 listen address")
		addr6       = fs.String("addr6", "", "IPv6 listen address (e.g. \"[::1]:5300\"); empty disables")
		suffix      = fs.String("suffix", "spf-test.dns-lab.example", "test-policy zone suffix")
		notify      = fs.String("notify", "dsav-mail.dns-lab.example", "NotifyEmail zone suffix")
		contact     = fs.String("contact", "research-contact@dns-lab.example", "attribution contact mailbox")
		timeScale   = fs.Float64("timescale", 1.0, "multiplier for the paper's 100ms/800ms response shaping")
		sender4     = fs.String("sender4", "203.0.113.10", "sending MTA IPv4 (authorized by NotifyEmail SPF)")
		sender6     = fs.String("sender6", "2001:db8:1::10", "sending MTA IPv6")
		quiet       = fs.Bool("quiet", false, "suppress per-query log lines")
		maxQPS      = fs.Float64("max-qps", 0, "per-source query rate limit (REFUSED above it); 0 disables")
		burst       = fs.Int("burst", 0, "per-source rate-limit burst (0 = default 8)")
		logBuffer   = fs.Int("log-buffer", 4096, "query-log buffer depth; full buffers drop (and count) entries instead of blocking the serving path")
		logFile     = fs.String("log-file", "", "durable query log: append every entry as a checksummed WAL record to this file (JSONL payload, readable by cmd/analyze)")
		logSync     = fs.String("log-sync", "interval", `-log-file fsync policy: "none", "interval" (group commit), or "always"`)
		logRotate   = fs.Int64("log-rotate", 256<<20, "-log-file rotation threshold in bytes (0 = never rotate)")
		metricsAddr = fs.String("metrics-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/pprof; empty disables")
	)
	var traceFlags cli.Trace
	traceFlags.Register(fs)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	logf := cli.Logf(stderr, "authdns")
	fail := func(err error) int { return cli.Exit(ctx, logf, err) }

	syncPolicy, err := wal.ParseSyncPolicy(*logSync)
	if err != nil {
		return fail(cli.Usage(err))
	}
	tracing, err := traceFlags.Open(logf)
	if err != nil {
		return fail(cli.Usage(err))
	}
	defer tracing.Close()

	env := &policy.Env{Suffix: *suffix + ".", TimeScale: *timeScale}
	notifyCfg := &policy.NotifyEmailConfig{
		Suffix:    *notify + ".",
		SenderV4:  netip.MustParseAddr(*sender4),
		SenderV6:  netip.MustParseAddr(*sender6),
		Contact:   *contact,
		TimeScale: *timeScale,
	}
	// The serving path logs to stdout (unless -quiet) and, with
	// -log-file, to a checksummed WAL on disk — both behind the async
	// buffer so neither blocks serving.
	var sink dnsserver.MultiSink
	if !*quiet {
		sink = append(sink, printSink{stdout})
	}
	var walSink *dnsserver.WALSink
	if *logFile != "" {
		walSink, err = dnsserver.NewWALSink(*logFile, wal.Options{
			Sync:        syncPolicy,
			RotateBytes: *logRotate,
		})
		if err != nil {
			return fail(err)
		}
		if rec := walSink.Recovered(); rec.Truncated {
			logf("query log %s had a torn tail; %d records salvaged, %d bytes truncated",
				*logFile, rec.Records, rec.DroppedBytes)
		}
		sink = append(sink, walSink)
	}
	asyncLog := dnsserver.NewAsyncLog(sink, *logBuffer)
	srv := &dnsserver.Server{
		Addr4:           *addr,
		Addr6:           *addr6,
		MaxQPSPerSource: *maxQPS,
		BurstPerSource:  *burst,
		Logf:            logf,
		Zones:           policy.StudyZones(env, notifyCfg),
		Log:             asyncLog,
		Tracer:          tracing.Tracer,
	}
	// Order matters at shutdown: stop accepting queries first, then
	// close the log. AsyncLog tolerates appends racing Close (late ones
	// are dropped and counted), but draining the server first keeps the
	// log complete on a clean shutdown.
	shutdown := func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logf("shutdown: %v", err)
		}
		asyncLog.Close()
		if walSink != nil {
			if err := walSink.Close(); err != nil {
				logf("closing query log: %v", err)
			}
		}
	}
	bound, err := srv.Start()
	if err != nil {
		shutdown()
		return fail(err)
	}
	// One write: a client that read the address may be querying already,
	// and its log lines must not land inside this one.
	banner := fmt.Sprintf("authdns: serving %s and %s on %s", *suffix, *notify, bound)
	if a6 := srv.Addr6Bound(); a6 != nil {
		banner += fmt.Sprintf(" and %s", a6)
	}
	fmt.Fprintf(stdout, "%s (%d test policies, timescale %.3f)\n", banner, len(policy.Catalog()), *timeScale)

	// The registry always exists — it is also the shutdown report —
	// and the admin HTTP plane is the opt-in part.
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	asyncLog.RegisterMetrics(reg)
	telemetry.RegisterRuntimeMetrics(reg)
	tracing.Tracer.RegisterMetrics(reg)

	health := telemetry.NewHealth()
	health.Register("querylog", func() error {
		if d := asyncLog.Dropped(); d > 0 {
			return fmt.Errorf("%d query-log entries dropped", d)
		}
		return nil
	})
	if walSink != nil {
		walSink.RegisterMetrics(reg, telemetry.L("name", "querylog"))
		// A wedged on-disk log flips /healthz: the collection is no
		// longer durable even though serving continues.
		health.Register("querylog-wal", walSink.Check)
	}

	stopAdmin, err := cli.StartAdmin("authdns", *metricsAddr, stdout, reg, health, tracing.Tracer)
	if err != nil {
		shutdown()
		return fail(err)
	}

	<-ctx.Done()
	shutdown()
	tracing.Close()
	stopAdmin()
	fmt.Fprintf(stdout, "authdns: shutting down; final counters:\n")
	_ = reg.WriteSummary(stdout)
	return cli.ExitOK
}

// printSink writes one attributed line per query. It runs on AsyncLog's
// drain goroutine: a slow terminal fills the log buffer (which drops
// and counts) and never stalls serving.
type printSink struct{ w io.Writer }

func (p printSink) Append(e dnsserver.LogEntry) {
	fmt.Fprintf(p.w, "%s %-4s %-5s test=%-4s mta=%-8s %s\n",
		e.Time.Format("15:04:05.000"), e.Transport, e.Type, e.TestID, e.MTAID, e.Name)
}

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
//	        [-log-file queries.wal] [-log-sync none|interval|always]
//	        [-log-rotate BYTES] [-metrics-addr 127.0.0.1:9153]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/traceflag"
	"sendervalid/internal/wal"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop, nil))
}

// run is main minus the process plumbing, so a test can drive a full
// serve-and-shutdown cycle in-process under -race: it injects a
// simulated signal through stop and learns the admin plane's bound
// address through ready.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal, ready chan<- string) int {
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
	traceFlags := traceflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	syncPolicy, err := wal.ParseSyncPolicy(*logSync)
	if err != nil {
		fmt.Fprintf(stderr, "authdns: %v\n", err)
		return 2
	}
	tracing, err := traceFlags.Open(func(format string, args ...any) {
		fmt.Fprintf(stderr, "authdns: "+format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintf(stderr, "authdns: %v\n", err)
		return 2
	}

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
			fmt.Fprintf(stderr, "authdns: %v\n", err)
			return 1
		}
		if rec := walSink.Recovered(); rec.Truncated {
			fmt.Fprintf(stderr,
				"authdns: query log %s had a torn tail; %d records salvaged, %d bytes truncated\n",
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
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "authdns: "+format+"\n", args...)
		},
		Zones: []*dnsserver.Zone{
			{
				Suffix:     *suffix + ".",
				Contact:    dnsserver.FormatContact(*contact),
				Responders: policy.RespondersWithDMARC(env, *contact),
			},
			{
				Suffix:     *notify + ".",
				Contact:    dnsserver.FormatContact(*contact),
				LabelDepth: 1,
				Default:    notifyCfg.Responder(),
			},
		},
		Log:    asyncLog,
		Tracer: tracing.Tracer,
	}
	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintf(stderr, "authdns: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "authdns: serving %s and %s on %s", *suffix, *notify, bound)
	if a6 := srv.Addr6Bound(); a6 != nil {
		fmt.Fprintf(stdout, " and %s", a6)
	}
	fmt.Fprintf(stdout, " (%d test policies, timescale %.3f)\n", len(policy.Catalog()), *timeScale)

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

	var admin *telemetry.AdminServer
	if *metricsAddr != "" {
		admin = &telemetry.AdminServer{Addr: *metricsAddr, Registry: reg, Health: health}
		if tracing.Tracer != nil {
			admin.Handle("/debug/traces", tracing.Tracer.DebugHandler(reg))
		}
		adminAddr, err := admin.Start()
		if err != nil {
			fmt.Fprintf(stderr, "authdns: %v\n", err)
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutdownCtx)
			asyncLog.Close()
			if walSink != nil {
				_ = walSink.Close()
			}
			_ = tracing.Close()
			return 1
		}
		fmt.Fprintf(stdout, "authdns: admin plane on http://%s/metrics\n", adminAddr)
		if ready != nil {
			ready <- adminAddr.String()
		}
	} else if ready != nil {
		ready <- ""
	}

	<-stop
	// Order matters: stop accepting queries first, then close the log.
	// AsyncLog tolerates appends racing Close (late ones are dropped
	// and counted), but draining the server first keeps the log
	// complete on a clean shutdown.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "authdns: shutdown: %v\n", err)
	}
	asyncLog.Close()
	if walSink != nil {
		if err := walSink.Close(); err != nil {
			fmt.Fprintf(stderr, "authdns: closing query log: %v\n", err)
		}
	}
	if err := tracing.Close(); err != nil {
		fmt.Fprintf(stderr, "authdns: closing trace file: %v\n", err)
	}
	if admin != nil {
		_ = admin.Shutdown(shutdownCtx)
	}
	fmt.Fprintf(stdout, "authdns: shutting down; final counters:\n")
	_ = reg.WriteSummary(stdout)
	return 0
}

// printSink writes one attributed line per query. It runs on AsyncLog's
// drain goroutine: a slow terminal fills the log buffer (which drops
// and counts) and never stalls serving.
type printSink struct{ w io.Writer }

func (p printSink) Append(e dnsserver.LogEntry) {
	fmt.Fprintf(p.w, "%s %-4s %-5s test=%-4s mta=%-8s %s\n",
		e.Time.Format("15:04:05.000"), e.Transport, e.Type, e.TestID, e.MTAID, e.Name)
}

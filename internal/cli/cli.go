// Package cli is the plumbing the eight commands share. Every command
// is
//
//	func main() { os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }
//
// around a testable run(ctx, args, stdin, stdout, stderr) int, and
// takes from here the exit-code convention, the prefixed stderr
// logger, the admin plane's start/stop, the tracing flags, and — for
// cmd/campaign and cmd/experiment — the flags that say which study to
// run.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sendervalid/internal/telemetry"
	"sendervalid/internal/trace"
)

// The exit-code convention (cmd/spfcheck keeps its own 1 = temperror,
// 3 = permerror on top of ExitUsage).
const (
	ExitOK          = 0
	ExitFailure     = 1   // the run failed
	ExitUsage       = 2   // bad flags, or a request the command refuses
	ExitInterrupted = 130 // cancelled by SIGINT/SIGTERM
)

// SignalContext returns the context a command runs under: cancelled by
// the first SIGINT or SIGTERM, after which default delivery is restored
// so a second signal kills a run that is slow to wind down.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx
}

// Parse parses a command line and reports whether run should go on.
// When not, code is what run returns: ExitOK after -h, ExitUsage for a
// bad command line (fs has already said why on its output).
func Parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return ExitOK, true
	case errors.Is(err, flag.ErrHelp):
		return ExitOK, false
	}
	return ExitUsage, false
}

// Logf returns the command's stderr logger: one "name: message" line
// per call.
func Logf(stderr io.Writer, name string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(stderr, name+": "+format+"\n", args...)
	}
}

// usageError marks an error as the invoker's mistake.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Usage marks err as the invoker's mistake — a bad flag value, or a
// request the command refuses — so Exit maps it to ExitUsage.
func Usage(err error) error { return usageError{err} }

// Exit reports a run's error through logf and returns the exit code
// the convention assigns it: ExitOK for nil, ExitUsage for a Usage
// error, ExitInterrupted when ctx was cancelled, ExitFailure otherwise.
func Exit(ctx context.Context, logf func(format string, args ...any), err error) int {
	if err == nil {
		return ExitOK
	}
	logf("%v", err)
	switch {
	case errors.As(err, new(usageError)):
		return ExitUsage
	case ctx.Err() != nil:
		return ExitInterrupted
	}
	return ExitFailure
}

// StartAdmin serves the admin plane — /metrics, /healthz, /statusz,
// /debug/pprof, and /debug/traces when tracer is live — on addr,
// announces the bound address on stdout, and returns the function that
// shuts it down. An empty addr disables the plane: nothing starts and
// the returned function does nothing.
func StartAdmin(name, addr string, stdout io.Writer, reg *telemetry.Registry, health *telemetry.Health, tracer *trace.Tracer) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	admin := &telemetry.AdminServer{Addr: addr, Registry: reg, Health: health}
	if tracer != nil {
		admin.Handle("/debug/traces", tracer.DebugHandler(reg))
	}
	bound, err := admin.Start()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: admin plane on http://%s/metrics\n", name, bound)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = admin.Shutdown(ctx)
	}, nil
}

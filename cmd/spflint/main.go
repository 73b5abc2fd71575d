// Command spflint statically analyzes SPF deployments the way the
// sender-side surveys cited by the paper (§3) did: syntax errors,
// lookup-limit violations the policy forces on validators, deprecated
// mechanisms, unsafe qualifiers, and dangling or looping includes.
//
// Usage:
//
//	spflint -record "v=spf1 a mx -all"                 # lint one record
//	spflint -domain example.com -server 127.0.0.1:53   # lint a deployment
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sendervalid/internal/cli"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run exits 0 for a deployment without error-severity findings, 1 when
// it has one or cannot be fetched, 2 on a usage error.
func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record = fs.String("record", "", "SPF record text to lint in isolation")
		domain = fs.String("domain", "", "domain whose published deployment to lint")
		server = fs.String("server", "", "DNS server ip:port (required with -domain)")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	var report *spf.LintReport
	switch {
	case *record != "":
		l := &spf.Linter{}
		report = l.LintRecord(*domain, *record)
	case *domain != "" && *server != "":
		res := resolver.New(resolver.Config{Server: *server, Timeout: 10 * time.Second})
		l := &spf.Linter{Resolver: res}
		var err error
		report, err = l.Lint(ctx, *domain)
		if err != nil {
			return cli.Exit(ctx, cli.Logf(stderr, "spflint"), err)
		}
	default:
		fs.Usage()
		return cli.ExitUsage
	}

	if report.Record != "" {
		fmt.Fprintf(stdout, "record:  %s\n", report.Record)
	}
	fmt.Fprintf(stdout, "lookups: %d (limit %d)\n", report.Lookups, spf.DefaultLookupLimit)
	if len(report.Findings) == 0 {
		fmt.Fprintln(stdout, "clean: no findings")
		return cli.ExitOK
	}
	for _, f := range report.Findings {
		fmt.Fprintln(stdout, " ", f)
	}
	if report.MaxSeverity() >= spf.Error {
		return cli.ExitFailure
	}
	return cli.ExitOK
}

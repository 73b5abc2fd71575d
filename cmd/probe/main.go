// Command probe runs the study's 39-policy probe sequence against one
// MTA over real TCP (not the simulation fabric), printing each probe's
// outcome. Point it at an MTA you operate, with the From-domain suffix
// served by a cooperating authdns instance, to reproduce the paper's
// measurement of a single server.
//
// Usage:
//
//	probe -target 192.0.2.25:25 -mta-id m0001 [-suffix spf-test.dns-lab.example]
//	      [-recipient-domain target.example] [-tests t01,t02] [-sleep 15s]
//	      [-timeout 30s] [-helo probe.dns-lab.example]
//	probe -list                                        # print the 39-policy catalog
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"time"

	"sendervalid/internal/cli"
	"sendervalid/internal/experiment"
	"sendervalid/internal/policy"
	"sendervalid/internal/probe"
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "print the 39-policy catalog and exit")
		target    = fs.String("target", "", "MTA address ip:port (required)")
		mtaID     = fs.String("mta-id", "m0001", "MTA identifier for From addresses")
		suffix    = fs.String("suffix", "spf-test.dns-lab.example", "From-domain zone suffix")
		rcptDom   = fs.String("recipient-domain", "", "recipient domain (default: target host)")
		testsFlag = fs.String("tests", "", `test policies: "core", "all", or a comma-separated ID list (default: all 39)`)
		sleep     = fs.Duration("sleep", 0, "inter-command sleep (the paper used 15s)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-exchange timeout")
		helo      = fs.String("helo", "probe.dns-lab.example", "HELO domain")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *list {
		for _, test := range policy.Catalog() {
			section := test.Section
			if section == "" {
				section = "-"
			}
			fmt.Fprintf(stdout, "%-5s %-20s %-6s %s\n", test.ID, test.Name, section, test.Description)
		}
		return cli.ExitOK
	}
	if *target == "" {
		fs.Usage()
		return cli.ExitUsage
	}
	ap, err := netip.ParseAddrPort(*target)
	if err != nil {
		fmt.Fprintf(stderr, "probe: bad -target: %v\n", err)
		return cli.ExitUsage
	}
	recipientDomain := *rcptDom
	if recipientDomain == "" {
		recipientDomain = ap.Addr().String()
	}
	tests := experiment.AllTests()
	if *testsFlag != "" {
		if tests, err = experiment.ParseTests(*testsFlag); err != nil {
			fmt.Fprintf(stderr, "probe: %v\n", err)
			return cli.ExitUsage
		}
	}

	client := &probe.Client{
		Dialer:          &net.Dialer{},
		Suffix:          *suffix,
		HeloDomain:      *helo,
		RecipientDomain: recipientDomain,
		HeloTestID:      "t03",
		Sleep:           *sleep,
		Timeout:         *timeout,
	}
	completed := 0
	for _, testID := range tests {
		if ctx.Err() != nil {
			return cli.ExitInterrupted
		}
		res := probeAt(ctx, client, ap, *mtaID, testID)
		status := string(res.Stage)
		if res.Stage == probe.StageDone {
			completed++
			status = fmt.Sprintf("done (DATA %d)", res.ReplyCode)
		} else if res.Err != nil {
			status = fmt.Sprintf("%s: %v", res.Stage, res.Err)
		}
		fmt.Fprintf(stdout, "%-4s from=%s rcpt=%-30s %s\n",
			testID, client.FromAddress(testID, *mtaID), res.Recipient, status)
	}
	fmt.Fprintf(stdout, "%d of %d probes reached DATA\n", completed, len(tests))
	return cli.ExitOK
}

func probeAt(ctx context.Context, c *probe.Client, ap netip.AddrPort, mtaID, testID string) *probe.Result {
	// The probe client targets port 25 by convention; honour an
	// explicit non-25 port by dialing through a rewriting dialer.
	if ap.Port() == 25 {
		return c.Probe(ctx, ap.Addr(), mtaID, testID)
	}
	inner := c.Dialer
	c2 := *c
	c2.Dialer = dialerFunc(func(ctx context.Context, network, address string) (net.Conn, error) {
		return inner.DialContext(ctx, network, ap.String())
	})
	return c2.Probe(ctx, ap.Addr(), mtaID, testID)
}

type dialerFunc func(ctx context.Context, network, address string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return f(ctx, network, address)
}

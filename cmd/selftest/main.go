// Command selftest serves the sender-validation self-assessment web
// tool the paper proposes in §8. It runs the instrumented DNS zone,
// the test-message sender, and an HTTP front end; entering a mailbox
// triggers one legitimate DKIM-signed delivery and a report on which
// of SPF/DKIM/DMARC the receiving infrastructure validated.
//
// The tool ships with a small simulated MTA fleet of assorted
// validation behaviours — the only recipients it can reach — so the
// flow can be tried immediately: assess operator@full.example,
// operator@spfonly.example, operator@partial.example,
// operator@postdata.example, or operator@none.example.
//
// Usage:
//
//	selftest [-listen 127.0.0.1:8080] [-zone selftest.dns-lab.example]
package main

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"time"

	"sendervalid/internal/cli"
	"sendervalid/internal/dkim"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/probe"
	"sendervalid/internal/selftest"
)

func main() {
	os.Exit(run(cli.SignalContext(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run serves until ctx is cancelled (SIGINT/SIGTERM in main).
func run(ctx context.Context, args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("selftest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		zone   = fs.String("zone", "selftest.dns-lab.example", "instrumented From-domain zone")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	fail := func(err error) int { return cli.Exit(ctx, cli.Logf(stderr, "selftest"), err) }

	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return fail(err)
	}
	keyTXT, err := dkim.FormatKeyRecord(pub)
	if err != nil {
		return fail(err)
	}

	senderAddr := netip.MustParseAddr("203.0.113.40")
	cfg := &policy.NotifyEmailConfig{
		Suffix:        *zone + ".",
		SenderV4:      senderAddr,
		DKIMSelector:  "st",
		DKIMKeyRecord: keyTXT,
		Contact:       "selftest@" + *zone,
		TimeScale:     0.01,
	}
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{Suffix: *zone + ".", LabelDepth: 1, Default: cfg.Responder()}},
		Log:   log,
	}
	// The zone is served to the demo fleet on its simulated fabric,
	// UDP and TCP on one address.
	fabric := netsim.NewFabric()
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")
	pc, err := fabric.ListenPacket(dnsAddr)
	if err != nil {
		return fail(err)
	}
	dnsLn, err := fabric.Listen(dnsAddr)
	if err != nil {
		return fail(err)
	}
	if err := srv.Serve(pc, dnsLn, nil, nil); err != nil {
		return fail(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	// The demo fleet: one MTA per behaviour archetype.
	demo := map[string]mtasim.Profile{
		"full.example": {ValidatesSPF: true, ValidatesDKIM: true, ValidatesDMARC: true,
			Phase: mtasim.AtData, AcceptAnyUser: true},
		"spfonly.example":  {ValidatesSPF: true, Phase: mtasim.AtMail, AcceptAnyUser: true},
		"partial.example":  {ValidatesSPF: true, PartialSPF: true, Phase: mtasim.AtMail, AcceptAnyUser: true},
		"postdata.example": {ValidatesSPF: true, Phase: mtasim.PostData, AcceptAnyUser: true},
		"none.example":     {AcceptAnyUser: true},
	}
	targets := make(map[string]netip.Addr)
	host := 50
	for domain, profile := range demo {
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(host)})
		host++
		mta := mtasim.New(mtasim.Config{
			ID: domain, Hostname: "mx." + domain, Addr4: addr,
			Profile: profile, Fabric: fabric, DNSAddr: dnsAddr.String(),
			SPFTimeout: 10 * time.Second,
		})
		if err := mta.Start(); err != nil {
			return fail(err)
		}
		defer mta.Close()
		targets[domain] = addr
	}

	service := &selftest.Service{
		Sender: &probe.Sender{
			Dialer:     fabric.BoundDialer(senderAddr, netip.Addr{}),
			Suffix:     *zone,
			HeloDomain: *zone,
			Signer:     &dkim.Signer{Selector: "st", Key: priv},
			ReplyTo:    "selftest@" + *zone,
			Timeout:    10 * time.Second,
		},
		Log: log,
		Targets: func(ctx context.Context, domain string) ([]probe.Target, error) {
			addr, ok := targets[domain]
			if !ok {
				return nil, fmt.Errorf("domain %s is not part of the demo fleet", domain)
			}
			return []probe.Target{{Addr4: addr}}, nil
		},
		Settle: 500 * time.Millisecond,
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "selftest: serving on http://%s (DNS zone %s on %s, simulated)\n", ln.Addr(), *zone, dnsAddr)
	fmt.Fprintln(stdout, "demo mailboxes: operator@full.example operator@spfonly.example "+
		"operator@partial.example operator@postdata.example operator@none.example")
	web := &http.Server{Handler: &selftest.Handler{Service: service}}
	served := make(chan error, 1)
	go func() { served <- web.Serve(ln) }()
	select {
	case err := <-served:
		return fail(err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = web.Shutdown(shutdownCtx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	return cli.ExitOK
}

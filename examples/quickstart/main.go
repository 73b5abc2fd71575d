// Quickstart: the smallest end-to-end use of the library.
//
// It stands up the three pieces of the measurement apparatus —
// the synthesizing authoritative DNS server, one simulated receiving
// MTA that validates SPF, and the probing SMTP client — runs a single
// probe, and reads the validation activity off the DNS query log,
// exactly the way the study infers "this server validates SPF".
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/probe"
)

func main() {
	const suffix = "spf-test.dns-lab.example."

	// 1. The synthesizing authoritative DNS server: all 39 test
	// policies, answers built on the fly from the query name, every
	// query logged with (testid, mtaid) attribution.
	env := &policy.Env{Suffix: suffix, TimeScale: 0.01} // 100ms shaping -> 1ms
	queryLog := &dnsserver.QueryLog{}
	authdns := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{
			Suffix:     suffix,
			Responders: policy.RespondersWithDMARC(env, "contact@dns-lab.example"),
		}},
		Log: queryLog,
	}
	// It serves UDP and TCP on one address of an in-process network
	// fabric, which carries every packet of the run.
	fabric := netsim.NewFabric()
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")
	pc, err := fabric.ListenPacket(dnsAddr)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := fabric.Listen(dnsAddr)
	if err != nil {
		log.Fatal(err)
	}
	if err := authdns.Serve(pc, ln, nil, nil); err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = authdns.Shutdown(ctx)
	}()
	fmt.Printf("authoritative DNS at %s (fabric) serving %d test policies\n", dnsAddr, len(policy.Catalog()))

	// 2. One simulated receiving MTA on the fabric: a real SMTP server
	// wired to a real stub resolver, which queries from the MTA's own
	// address, and a fully compliant SPF validator.
	mta := mtasim.New(mtasim.Config{
		ID:       "m0001",
		Hostname: "mx1.recipient.example",
		Addr4:    netip.MustParseAddr("203.0.113.25"),
		Profile: mtasim.Profile{
			ValidatesSPF:  true,
			Phase:         mtasim.AtMail,
			AcceptAnyUser: true,
		},
		Fabric:  fabric,
		DNSAddr: dnsAddr.String(),
	})
	if err := mta.Start(); err != nil {
		log.Fatal(err)
	}
	defer mta.Close()
	fmt.Println("simulated MTA listening at 203.0.113.25:25 (fabric)")

	// 3. Probe it with the serial-vs-parallel test policy (t01): EHLO,
	// MAIL with an instrumented From domain, RCPT, DATA — then
	// disconnect before any content, so nothing can be delivered.
	client := &probe.Client{
		Dialer:          fabric,
		Suffix:          suffix,
		HeloDomain:      "probe.dns-lab.example",
		RecipientDomain: "recipient.example",
		Timeout:         5 * time.Second,
	}
	res := client.Probe(context.Background(), netip.MustParseAddr("203.0.113.25"), "m0001", "t01")
	fmt.Printf("probe: stage=%s recipient=%s reply=%d\n", res.Stage, res.Recipient, res.ReplyCode)

	// 4. Read the measurement off the DNS query log.
	fmt.Println("\nqueries observed at the authoritative server:")
	for _, e := range queryLog.Entries() {
		from := netip.MustParseAddrPort(e.Remote).Addr()
		fmt.Printf("  %-5s %-55s test=%s mta=%s from=%s\n", e.Type, e.Name, e.TestID, e.MTAID, from)
	}
	if queryLog.Len() > 0 {
		fmt.Println("\n=> the MTA is SPF-validating (it fetched and evaluated the policy)")
	} else {
		fmt.Println("\n=> no validation observed")
	}
}

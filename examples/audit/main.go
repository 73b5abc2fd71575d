// audit: assess one organization's mail deployment from both sides —
// the workflow a postmaster would run with this library.
//
// Sender side: lint the organization's published SPF deployment the
// way the surveys cited in the paper's §3 did — syntax errors, forced
// limit violations, unsafe qualifiers, dangling includes.
//
// Receiver side: probe the organization's MTA with the study's test
// policies, extract its behaviour fingerprint (§8 future work), and
// classify it against reference validator profiles.
//
// The example wires up a deliberately flawed organization in
// simulation: an SPF record with a lookup-heavy include chain and a
// +all escape hatch, and an MTA whose validator ignores the void- and
// MX-lookup limits.
//
// Run with: go run ./examples/audit
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/probe"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

func main() {
	const testSuffix = "spf-test.dns-lab.example."

	// The organization's (flawed) sender-side DNS.
	org := dnsserver.NewStatic().
		SPF("flawed-corp.example",
			"v=spf1 include:l1.flawed-corp.example ptr a mx exists:e1.flawed-corp.example "+
				"exists:e2.flawed-corp.example exists:e3.flawed-corp.example +all").
		SPF("l1.flawed-corp.example",
			"v=spf1 include:l2.flawed-corp.example include:l3.flawed-corp.example "+
				"include:l4.flawed-corp.example include:l5.flawed-corp.example ?all").
		SPF("l2.flawed-corp.example", "v=spf1 a mx ?all").
		SPF("l3.flawed-corp.example", "v=spf1 a mx ?all").
		SPF("l4.flawed-corp.example", "v=spf1 a mx ?all").
		SPF("l5.flawed-corp.example", "v=spf1 include:missing.flawed-corp.example ?all")

	env := &policy.Env{Suffix: testSuffix, TimeScale: 0.01}
	log2 := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{
			{Suffix: testSuffix, Responders: policy.Responders(env)},
			{Suffix: "flawed-corp.example.", LabelDepth: 1, Default: org, NoLog: true},
		},
		Log: log2,
	}
	// Everything talks over one simulated network fabric: the server
	// answers UDP and TCP on one address there.
	fabric := netsim.NewFabric()
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")
	if err := srv.Serve(fabric, dnsAddr); err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	// --- Sender-side audit: lint the published deployment. ---
	fmt.Println("== sender-side audit: SPF deployment of flawed-corp.example ==")
	res := resolver.New(resolver.Config{Server: dnsAddr.String(), Timeout: 3 * time.Second, Dialer: fabric})
	linter := &spf.Linter{Resolver: res}
	report, err := linter.Lint(context.Background(), "flawed-corp.example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record:  %s\n", report.Record)
	fmt.Printf("lookups: %d (limit %d)\n", report.Lookups, spf.DefaultLookupLimit)
	for _, f := range report.Findings {
		fmt.Println(" ", f)
	}

	// --- Receiver-side audit: probe and fingerprint the MTA. ---
	fmt.Println("\n== receiver-side audit: the organization's MTA ==")
	mta := mtasim.New(mtasim.Config{
		ID: "corpmx", Hostname: "mx.flawed-corp.example",
		Addr4: netip.MustParseAddr("203.0.113.80"),
		Profile: mtasim.Profile{
			ValidatesSPF: true, Phase: mtasim.AtMail, AcceptAnyUser: true,
			SPFOptions: spf.Options{VoidLookupLimit: -1, MXAddressLimit: -1},
		},
		Fabric: fabric, DNSAddr: dnsAddr.String(),
		SPFTimeout: 10 * time.Second,
	})
	if err := mta.Start(); err != nil {
		log.Fatal(err)
	}
	defer mta.Close()

	client := &probe.Client{
		Dialer: fabric, Suffix: testSuffix,
		HeloDomain: "audit.dns-lab.example", RecipientDomain: "flawed-corp.example",
		HeloTestID: "t03", Timeout: 5 * time.Second,
	}
	for _, testID := range experiment.CoreTests {
		client.Probe(context.Background(), netip.MustParseAddr("203.0.113.80"), "corpmx", testID)
	}

	o := fingerprint.Observe(log2.Entries())["corpmx"]
	if o == nil {
		log.Fatal("no fingerprint extracted")
	}
	v := o.Vector()
	fmt.Println(fingerprint.Describe(v))
	fmt.Println("classification against reference validator profiles:")
	for _, m := range fingerprint.Classify(v, fingerprint.References()) {
		fmt.Printf("  %-22s %3.0f%% agreement (%d/%d traits)\n",
			m.Name, 100*m.Score(), m.Comparable-m.Disagreements, m.Comparable)
	}
}

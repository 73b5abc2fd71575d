// Ablations of the design choices DESIGN.md calls out and benchmarks
// of the hot paths the BENCHMARK.json workloads run: protocol traffic
// over the in-process fabric, DNS included (the resolver-only
// ablations query a loopback server). The study's printed results are
// not measured here; internal/experiment holds them to the golden
// report testdata/report-4000.golden.
package sendervalid

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/bulkspf"
	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/dkim"
	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/probe"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

// benchWorld builds a NotifyEmail world of 150 domains, for the
// benchmarks that read a query log.
func benchWorld(b *testing.B, seed int64) *experiment.World {
	b.Helper()
	pop := dataset.Generate(dataset.NotifyEmailSpec(seed).Scaled(150))
	w, err := experiment.BuildWorld(pop, experiment.WorldConfig{
		Seed: seed, Rates: experiment.NotifyRates(), TimeScale: 0.0002,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	return w
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSynthesisVsStatic quantifies what the paper's
// on-the-fly synthesis avoids: materializing the 704 records per MTA
// (27.8M total at paper scale) as static zone data. The synthesized
// path is the one the `authdns-serve` workload serves.
func BenchmarkAblationSynthesisVsStatic(b *testing.B) {
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 0}
	responders := policy.Responders(env)

	b.Run("synthesized", func(b *testing.B) {
		b.ReportAllocs()
		q := &dnsserver.Query{
			Name: "t01.m000001." + experiment.DefaultTestSuffix,
			Type: dns.TypeTXT, TestID: "t01", MTAID: "m000001",
		}
		for i := 0; i < b.N; i++ {
			// One synthesized response per query; no per-MTA state.
			_ = responders["t01"].Respond(q)
		}
	})
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		// Materialize the per-MTA record set the way a static zone
		// would, for as many MTAs as the benchmark iterates.
		records := make(map[string]string)
		for i := 0; i < b.N; i++ {
			mta := fmt.Sprintf("m%06d", i)
			for _, t := range policy.Catalog() {
				base := t.ID + "." + mta + "." + experiment.DefaultTestSuffix
				q := &dnsserver.Query{Name: base, Type: dns.TypeTXT, TestID: t.ID, MTAID: mta}
				resp := responders[t.ID].Respond(q)
				for _, rr := range resp.Records {
					records[rr.Name] = rr.Data.String()
				}
			}
		}
		b.ReportMetric(float64(len(records))/float64(b.N), "records/MTA")
	})
}

// BenchmarkAblationResolverScheduling contrasts serial and parallel
// (prefetching) lookup strategies on the shaped t01 policy — the §7.1
// question of which strategy wins on deep policies. The
// `probe-campaign` workload's validators run both.
func BenchmarkAblationResolverScheduling(b *testing.B) {
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 0.02} // 100ms -> 2ms
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{{
		Suffix: experiment.DefaultTestSuffix, Responders: policy.Responders(env),
	}}}
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	client := netip.MustParseAddr("198.18.0.1")
	run := func(b *testing.B, prefetch bool) {
		for i := 0; i < b.N; i++ {
			res := resolver.New(resolver.Config{Server: addr.String()})
			checker := &spf.Checker{Resolver: res, Options: spf.Options{
				Prefetch: prefetch, Timeout: 20 * time.Second,
			}}
			domain := fmt.Sprintf("t01.s%d%v.%s", i, prefetch,
				strings.TrimSuffix(experiment.DefaultTestSuffix, "."))
			out := checker.CheckHost(context.Background(), client, domain,
				"spf-test@"+domain, "bench.example")
			if out.Result != spf.Fail {
				b.Fatalf("unexpected result %s (%v)", out.Result, out.Err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("parallel", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLookupLimit quantifies the DNS load difference
// between a compliant validator and a limit-ignoring one on the
// Figure 4 limits policy, which the `probe-campaign` workload's
// validators of both kinds evaluate.
func BenchmarkAblationLookupLimit(b *testing.B) {
	// TimeScale 1e-9 disables the 800 ms shaping (0 means unscaled).
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 1e-9}
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{
			Suffix: experiment.DefaultTestSuffix, Responders: policy.Responders(env),
		}},
		Log: log,
	}
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	client := netip.MustParseAddr("198.18.0.1")
	run := func(b *testing.B, limit int) {
		before := log.Len()
		for i := 0; i < b.N; i++ {
			res := resolver.New(resolver.Config{Server: addr.String()})
			checker := &spf.Checker{Resolver: res, Options: spf.Options{
				LookupLimit: limit, VoidLookupLimit: -1, Timeout: 20 * time.Second,
			}}
			domain := fmt.Sprintf("t02.b%d.%s", i,
				strings.TrimSuffix(experiment.DefaultTestSuffix, "."))
			checker.CheckHost(context.Background(), client, domain,
				"spf-test@"+domain, "bench.example")
		}
		b.ReportMetric(float64(log.Len()-before)/float64(b.N), "dns-queries/eval")
	}
	b.Run("compliant", func(b *testing.B) { run(b, 0) })
	b.Run("unlimited", func(b *testing.B) { run(b, -1) })
}

// BenchmarkAblationResolverCache measures repeated policy retrieval
// with the stub resolver's cache warm and with a fresh resolver per
// lookup: the hit path of the `bulk-spf` workload and the miss path of
// `probe-campaign`.
func BenchmarkAblationResolverCache(b *testing.B) {
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 1e-9}
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{{
		Suffix: experiment.DefaultTestSuffix, Responders: policy.Responders(env),
	}}}
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	name := "t12.cache." + experiment.DefaultTestSuffix
	cfg := resolver.Config{Server: addr.String()}
	run := func(b *testing.B, cold bool) {
		res := resolver.New(cfg)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				res = resolver.New(cfg)
			}
			if _, err := res.LookupTXT(ctx, name); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, false) })
	b.Run("uncached", func(b *testing.B) { run(b, true) })
}

// BenchmarkBulkSPF measures the concurrent bulk validation pipeline
// end to end: JSONL tuples through the worker pool, every mechanism
// lookup against a live in-process authoritative server through one
// shared resolver. Domains repeat across tuples the way real mail
// streams repeat senders, so the sharded cache and singleflight dedup
// carry most of the load after the first pass. The `bulk-spf` workload
// runs the same pipeline at scale.
func BenchmarkBulkSPF(b *testing.B) {
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 1e-9}
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{{
		Suffix: experiment.DefaultTestSuffix, Responders: policy.Responders(env),
	}}}
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	const domains = 64
	const tuples = 256
	var in bytes.Buffer
	for i := 0; i < tuples; i++ {
		fmt.Fprintf(&in, `{"ip":"198.18.0.1","mail_from":"spf-test@t01.b%02d.%s"}`+"\n",
			i%domains, strings.TrimSuffix(experiment.DefaultTestSuffix, "."))
	}
	data := in.Bytes()
	res := resolver.New(resolver.Config{Server: addr.String()})
	eval := bulkspf.New(bulkspf.Config{Resolver: res, Workers: 8})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := eval.Run(ctx, bytes.NewReader(data), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Evaluated != tuples || stats.Results[spf.Fail] != tuples {
			b.Fatalf("unexpected stats: %+v", stats)
		}
	}
	b.ReportMetric(tuples, "tuples/op")
}

// --- Protocol micro-benchmarks ---

// BenchmarkDNSMessagePackUnpack measures the DNS wire codec on one
// query, the codec every exchange of the `authdns-serve` workload runs.
func BenchmarkDNSMessagePackUnpack(b *testing.B) {
	msg := new(dns.Message).SetQuestion("t01.m000001."+experiment.DefaultTestSuffix, dns.TypeTXT)
	msg.ID = 42
	packed, err := msg.AppendPack(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m dns.Message
		if err := m.Unpack(packed); err != nil {
			b.Fatal(err)
		}
		if _, err := m.AppendPack(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPFParse measures parsing one SPF record, which every
// evaluation of the `bulk-spf` workload does per record fetched.
func BenchmarkSPFParse(b *testing.B) {
	const record = "v=spf1 ip4:192.0.2.0/24 a:mail.example.com mx include:_spf.example.net exists:%{ir}.x.example.org -all"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spf.Parse(record); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMTPProbeSession measures one probe dialogue against a
// non-validating MTA over the fabric: the SMTP half of the
// `probe-campaign` workload's op.
func BenchmarkSMTPProbeSession(b *testing.B) {
	fabric := netsim.NewFabric()
	mta := mtasim.New(mtasim.Config{
		ID: "bench", Hostname: "bench.mx.example",
		Addr4:   netip.MustParseAddr("203.0.113.99"),
		Profile: mtasim.Profile{AcceptAnyUser: true},
		Fabric:  fabric,
	})
	if err := mta.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mta.Close)
	client := &probe.Client{
		Dialer: fabric, Suffix: "spf-test.dns-lab.example",
		HeloDomain: "probe.example", RecipientDomain: "target.example",
		Timeout: 5 * time.Second,
	}
	addr := netip.MustParseAddr("203.0.113.99")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := client.Probe(ctx, addr, "bench", "t12")
		if res.Stage != probe.StageDone {
			b.Fatalf("probe: %+v", res)
		}
	}
}

// BenchmarkProbeSession measures the unit of work the `probe-campaign`
// workload of BENCHMARK.json repeats ≈50k times: one probe dialogue
// over the fabric against an SPF-validating MTA whose resolver fetches
// the baseline policy from an in-process authoritative server. Every
// iteration names a new MTA id, as every (MTA, test) pair of a campaign
// does, so the resolver misses its cache and the query crosses the
// fabric. B/op and allocs/op are what the session leaves for the
// collector — the figure the campaign's peak RSS follows.
func BenchmarkProbeSession(b *testing.B) {
	env := &policy.Env{Suffix: experiment.DefaultTestSuffix, TimeScale: 0.0002}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{Suffix: env.Suffix, Responders: policy.Responders(env)}},
		Log:   &dnsserver.QueryLog{},
	}
	fabric := netsim.NewFabric()
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")
	if err := srv.Serve(fabric, dnsAddr); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	addr := netip.MustParseAddr("203.0.113.98")
	mta := mtasim.New(mtasim.Config{
		ID: "bench", Hostname: "bench.mx.example", Addr4: addr,
		Profile: mtasim.Profile{ValidatesSPF: true, AcceptAnyUser: true},
		Fabric:  fabric, DNSAddr: dnsAddr.String(),
	})
	if err := mta.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(mta.Close)
	client := &probe.Client{
		Dialer: fabric, Suffix: env.Suffix,
		HeloDomain: "probe.example", RecipientDomain: "target.example",
		Timeout: 10 * time.Second,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := client.Probe(ctx, addr, fmt.Sprintf("m%06d", i), "t12")
		if res.Stage != probe.StageDone {
			b.Fatalf("probe: %+v", res)
		}
	}
	b.StopTimer()
	if got := mta.Stats().SPFChecks; got != b.N {
		b.Fatalf("%d probes ran %d SPF checks", b.N, got)
	}
}

// --- Campaign orchestration ---

// BenchmarkCampaignThroughput measures the campaign scheduler driving
// real SMTP probe sessions over the fabric with a fifth of the fleet
// initially dark (netsim-injected connection refusals), so the
// transient-retry path — classification, backoff, re-dispatch — is on
// the measured path. Each outage heals at first contact; every task
// must finish within the attempt budget. An op includes the campaign's
// own backoff: a dark MTA's tasks wait 50–100 ms before their retry.
// The `probe-campaign` workload runs the same scheduler over the whole
// fleet.
func BenchmarkCampaignThroughput(b *testing.B) {
	const fleet = 20
	fabric := netsim.NewFabric()
	tests := []string{"t01", "t02", "t03", "t12"}
	addrs := make(map[string]netip.Addr, fleet)
	ids := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		id := fmt.Sprintf("bench%02d", i)
		addr := netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", 10+i))
		mta := mtasim.New(mtasim.Config{
			ID: id, Hostname: id + ".mx.example", Addr4: addr,
			Profile: mtasim.Profile{AcceptAnyUser: true},
			Fabric:  fabric,
		})
		if err := mta.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(mta.Close)
		addrs[id], ids[i] = addr, id
	}
	client := &probe.Client{
		Dialer: fabric, Suffix: "spf-test.dns-lab.example",
		HeloDomain: "probe.example", RecipientDomain: "target.example",
		Timeout: 5 * time.Second,
	}
	ctx := context.Background()
	b.ResetTimer()
	var retried, attempts float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < fleet; j += 5 {
			fabric.SetFaults(addrs[ids[j]], &netsim.FaultProfile{DialFailure: 1})
		}
		c := campaign.New(campaign.Config{Workers: 16, MaxAttempts: 4, Seed: int64(i)}, func(ctx context.Context, t campaign.Task) error {
			res := client.Probe(ctx, addrs[t.MTA], t.MTA, t.Test)
			if errors.Is(res.Err, netsim.ErrConnRefused) {
				fabric.SetFaults(addrs[t.MTA], nil)
			}
			return res.Err
		})
		for _, id := range ids {
			for _, testID := range tests {
				c.Add(campaign.Task{MTA: id, Test: testID})
			}
		}
		if err := c.Run(ctx); err != nil {
			b.Fatal(err)
		}
		snap := c.Snapshot()
		if snap.Failed > 0 || snap.Done != fleet*len(tests) {
			b.Fatalf("campaign: %s", snap)
		}
		retried, attempts = float64(snap.Retried), float64(snap.Attempts)
	}
	b.ReportMetric(float64(fleet*len(tests)), "probes/op")
	b.ReportMetric(retried, "retries/op")
	b.ReportMetric(attempts, "attempts/op")
}

// --- Extension benchmarks ---

// BenchmarkFingerprintExtraction measures distilling behaviour vectors
// and clustering from a realistic query log, one of the four analyses
// of the `log-ingest` workload.
func BenchmarkFingerprintExtraction(b *testing.B) {
	w := benchWorld(b, 17)
	tests := []string{"t01", "t02", "t06", "t07", "t08", "t11"}
	experiment.NewProbeCampaign(w, tests, campaign.Config{Workers: 32}, nil).Run(context.Background())
	entries := w.Log.Entries()
	b.ResetTimer()
	var families int
	for i := 0; i < b.N; i++ {
		clusters, _ := experiment.AnalyzeFingerprintEntries(entries)
		families = len(clusters)
	}
	b.ReportMetric(float64(families), "families")
}

// Diagnostic: BenchmarkDKIMSignVerify measures a full sign + verify
// round trip (Ed25519, relaxed/relaxed) including the key lookup. No
// workload signs or verifies DKIM.
func BenchmarkDKIMSignVerify(b *testing.B) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	keyTXT, err := dkim.FormatKeyRecord(pub)
	if err != nil {
		b.Fatal(err)
	}
	res := staticTXT{name: "s._domainkey.bench.example", txt: keyTXT}
	msg := []byte("From: a@bench.example\r\nTo: b@x.example\r\nSubject: bench\r\n\r\nbody\r\n")
	signer := &dkim.Signer{Domain: "bench.example", Selector: "s", Key: priv}
	verifier := &dkim.Verifier{Resolver: res}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		signed, err := signer.Sign(msg)
		if err != nil {
			b.Fatal(err)
		}
		if out := verifier.Verify(ctx, signed); out.Result != dkim.ResultPass {
			b.Fatalf("verify: %s (%v)", out.Result, out.Err)
		}
	}
}

type staticTXT struct{ name, txt string }

func (s staticTXT) LookupTXT(ctx context.Context, name string) ([]string, error) {
	if strings.TrimSuffix(name, ".") == s.name {
		return []string{s.txt}, nil
	}
	return nil, nil
}

// BenchmarkQueryLogJSONRoundTrip measures log persistence, the
// collect-then-analyze workflow's I/O cost: the `probe-campaign`
// workload writes its log out this way before ingesting it.
func BenchmarkQueryLogJSONRoundTrip(b *testing.B) {
	w := benchWorld(b, 18)
	experiment.NewProbeCampaign(w, []string{"t01", "t12"}, campaign.Config{Workers: 32}, nil).Run(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	var entries int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := w.Log.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		parsed, err := dnsserver.ReadLogJSON(&buf)
		if err != nil {
			b.Fatal(err)
		}
		entries = len(parsed)
	}
	b.ReportMetric(float64(entries), "entries")
}

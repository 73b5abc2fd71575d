package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/bulkspf"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

// bulk-spf: the pipeline `cmd/spfcheck -input` runs — an unlogged
// authoritative server, one shared caching resolver, a bulkspf
// evaluator with C workers — over sequential Runs of one JSONL buffer
// whose sender domains repeat heavily, so the resolver answers from
// its cache. Op = one tuple.

const (
	// bulkRuns is how many times the buffer is evaluated; ops_per_s and
	// cpu_us_per_op are medians over the Runs, which also keeps the one
	// cold-cache Run from deciding them.
	bulkRuns = 10
	// bulkNames is the number of distinct sender names; with the five
	// policies' follow-up lookups the working set is ≈2.7k cache
	// entries, under the resolver's 4096 default.
	bulkNames = 1024
)

// bulkPolicies are the policies the sender domains spread over: the
// serial-lookup chain, the HELO policy, a syntax error, void lookups
// and the baseline.
var bulkPolicies = []string{"t01", "t03", "t04", "t06", "t12"}

type bulkInstance struct {
	cfg      config
	rec      *recorder
	srv      *dnsserver.Server
	resolver spf.Resolver
	eval     *bulkspf.Evaluator
	input    []byte
	tuples   []bulkspf.Tuple
	// expected counts results per SPF result over one Run, derived
	// from the seed: a reference evaluation per policy × the tuples
	// drawn for it.
	expected map[spf.Result]uint64

	lookups *resolverShim
	wire    *wireDialer
}

func setupBulkSPF(cfg config, rec *recorder) (instance, error) {
	in := &bulkInstance{cfg: cfg, rec: rec, expected: map[spf.Result]uint64{}}
	in.srv = &dnsserver.Server{Zones: []*dnsserver.Zone{testZone()}}
	bound, err := in.srv.Start()
	if err != nil {
		return nil, err
	}
	addr := bound.String()

	rcfg := resolver.Config{Server: addr}
	if rec != nil {
		in.wire = &wireDialer{inner: &netDialer, rec: rec, name: spanResolverWire}
		rcfg.Dialer = in.wire
	}
	in.resolver = resolver.New(rcfg)
	if rec != nil {
		in.lookups = &resolverShim{inner: in.resolver, rec: rec}
		in.resolver = in.lookups
	}
	in.eval = bulkspf.New(bulkspf.Config{Resolver: in.resolver, Workers: cfg.Clients})

	// The reference result of each policy, from a resolver of its own
	// so the shared one starts cold.
	zone := strings.TrimSuffix(testSuffix, ".")
	ref := &spf.Checker{Resolver: resolver.New(resolver.Config{Server: addr})}
	perPolicy := map[string]spf.Result{}
	for _, p := range bulkPolicies {
		domain := p + ".bref." + zone
		perPolicy[p] = ref.CheckHost(context.Background(), probeAddr, domain, "spf-test@"+domain, domain).Result
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.1, 1, bulkNames-1)
	lines := cfg.scaled(7000, 50)
	var buf bytes.Buffer
	in.tuples = make([]bulkspf.Tuple, lines)
	for i := range in.tuples {
		rank := int(zipf.Uint64())
		p := bulkPolicies[rank%len(bulkPolicies)]
		t := bulkspf.Tuple{
			IP:       probeAddr.String(),
			MailFrom: fmt.Sprintf("spf-test@%s.b%04d.%s", p, rank, zone),
		}
		in.tuples[i] = t
		fmt.Fprintf(&buf, `{"ip":%q,"mail_from":%q}`+"\n", t.IP, t.MailFrom)
		in.expected[perPolicy[p]]++
	}
	in.input = buf.Bytes()
	return in, nil
}

func (in *bulkInstance) close() { shutdownServer(in.srv) }

// lineCounter counts the result lines the evaluator writes.
type lineCounter struct{ lines int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

func (in *bulkInstance) run(res *result) error {
	lines := int64(len(in.tuples))
	res.Sizes["tuples_per_run"] = lines
	res.Sizes["runs"] = bulkRuns
	res.Sizes["names"] = bulkNames
	res.Attempted = lines * bulkRuns

	ctx := context.Background()
	var rates, cpus []float64
	var runTotal time.Duration
	for r := 0; r < bulkRuns; r++ {
		var out lineCounter
		win := startWindow()
		self, start := in.rec.begin(opCtx{})
		stats, err := in.eval.Run(ctx, bytes.NewReader(in.input), &out)
		in.rec.end(spanBulkspfRun, opCtx{}, self, start)
		wall, cpu := win.stop()
		if err != nil {
			return err
		}
		runTotal += wall
		rates = append(rates, float64(lines)/wall.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/float64(lines))

		// Output checks, per Run.
		res.Failed += int64(stats.Errored)
		if stats.Evaluated != uint64(lines) || stats.Errored != 0 || out.lines != lines {
			res.failCheck("run %d: evaluated %d, errored %d, wrote %d lines; want %d, 0, %d",
				r, stats.Evaluated, stats.Errored, out.lines, lines, lines)
		}
		for result, want := range in.expected {
			if got := stats.Results[result]; got != want {
				res.failCheck("run %d: %d tuples came out %s, the seed gives %d", r, got, result, want)
				res.Failed += int64(max(got, want) - min(got, want))
			}
		}
	}
	res.set("ops_per_s", median(rates))
	res.set("cpu_us_per_op", median(cpus))

	if in.rec != nil {
		in.replay(res, runTotal)
	}
	return nil
}

// replay sends one pass of the same tuples straight through
// spf.Checker.CheckHost on C goroutines against the now-warm resolver,
// which is how the time inside check_host() is seen from outside the
// pipeline. Its sums are scaled to the bulkRuns passes of the window.
func (in *bulkInstance) replay(res *result, runTotal time.Duration) {
	// What the shims counted during the Runs.
	lookups, lookupWait := in.lookups.calls.Load(), in.lookups.waitNs.Load()
	wire, wireWait := in.wire.count.Load(), in.wire.waitNs.Load()

	in.lookups.spans.Store(true)
	in.wire.spans.Store(true)
	checker := &spf.Checker{Resolver: in.resolver}
	var wg sync.WaitGroup
	for c := 0; c < in.cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(in.tuples); i += in.cfg.Clients {
				t := in.tuples[i]
				ip, _ := netip.ParseAddr(t.IP)
				domain := t.MailFrom[strings.IndexByte(t.MailFrom, '@')+1:]
				root := opCtx{trace: int64(i + 1)}
				self, start := in.rec.begin(root)
				checker.CheckHost(withOp(context.Background(), self), ip, domain, t.MailFrom, domain)
				in.rec.end(spanSpfCheckhost, root, self, start)
			}
		}(c)
	}
	wg.Wait()

	stats := rollUp(in.rec.all())
	checkSelfTimes(res, stats)
	checkhost := stats[spanSpfCheckhost]
	checkhostS := checkhost.Total.Seconds() * bulkRuns
	res.set("bulkspf.run_s", runTotal.Seconds())
	res.set("bulkspf.pipeline_overhead_s", float64(in.cfg.Clients)*runTotal.Seconds()-checkhostS)
	res.set("spf.checkhost_s", checkhostS)
	res.set("spf.eval_self_s", checkhost.Self.Seconds()*bulkRuns)
	res.set("spf.lookup_calls", float64(lookups))
	res.set("spf.lookup_wait_s", time.Duration(lookupWait).Seconds())
	res.set("resolver.lookups", float64(lookups))
	res.set("resolver.wire_exchanges", float64(wire))
	res.set("resolver.wire_wait_s", time.Duration(wireWait).Seconds())
	res.set("resolver.self_s", time.Duration(lookupWait-wireWait).Seconds())
	if lookups > 0 {
		res.set("resolver.hit_ratio", 1-float64(wire)/float64(lookups))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"spf.checkhost_s and spf.eval_self_s are one replayed pass (%d tuples) x %d runs", len(in.tuples), bulkRuns))
}

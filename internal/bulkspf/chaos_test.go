package bulkspf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
	"sendervalid/internal/trace"
)

// chaosSeed returns the fault seed: CHAOS_SEED when set (the same knob
// as `make chaos`), else the default, always logged for reproduction.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(42)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("CHAOS_SEED=%d (override with the env var to reproduce)", seed)
	return seed
}

// fabricDNS serves a static TXT zone under suffix with dnsserver.Server
// on the fabric's datagram endpoint at addr (TCP beside it), so every
// query and every reply crosses the link's faults. Lost datagrams
// surface to the resolver as read timeouts, which its retry loop
// absorbs.
func fabricDNS(t *testing.T, fabric *netsim.Fabric, addr netip.AddrPort, suffix string, txt map[string]string) {
	t.Helper()
	static := dnsserver.NewStatic()
	for name, rec := range txt {
		static.TXT(name, rec)
	}
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{{Suffix: suffix, LabelDepth: 1, Default: static}}}
	pc, err := fabric.ListenPacket(addr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := fabric.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(pc, ln, nil, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
}

// TestBulkPipelineChaos runs the full bulk pipeline against a DNS
// server reached through a lossy, refusal-prone netsim fabric: every
// input line must still produce exactly one output line, worst case a
// temperror, and the run must not leak goroutines. `make bulk-race`
// runs it, with the rest of the package, under -race at a chosen
// CHAOS_SEED.
func TestBulkPipelineChaos(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	seed := chaosSeed(t)

	fabric := netsim.NewFabric()
	fabric.SetChaosSeed(seed)
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")

	const domains = 12
	zone := make(map[string]string, domains)
	for i := 0; i < domains; i++ {
		policy := "v=spf1 ip4:203.0.113.0/24 -all"
		if i%3 == 0 {
			policy = "v=spf1 -all"
		}
		zone[fmt.Sprintf("d%02d.chaos.example.", i)] = policy
	}
	fabricDNS(t, fabric, dnsAddr, "chaos.example.", zone)

	// Faults on every path between the stub resolver and the server:
	// dropped datagrams (queries and replies), refused dials, jitter.
	fabric.SetDefaultFaults(&netsim.FaultProfile{
		DialFailure: 0.05,
		Loss:        0.12,
		Jitter:      2 * time.Millisecond,
	})

	r := resolver.New(resolver.Config{
		Server:     dnsAddr.String(),
		Dialer:     fabric,
		DisableTCP: true,
		Timeout:    150 * time.Millisecond,
	})

	const tuples = 150
	var in bytes.Buffer
	for i := 0; i < tuples; i++ {
		ip := "203.0.113.9" // in the pass range
		if i%2 == 1 {
			ip = "198.51.100.9"
		}
		fmt.Fprintf(&in, `{"ip":%q,"mail_from":"u%d@d%02d.chaos.example"}`+"\n",
			ip, i, i%domains)
	}

	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := New(Config{Resolver: r, Workers: 6}).Run(ctx, &in, &out)
	if err != nil {
		t.Fatalf("Run under chaos: %v", err)
	}

	var results []Result
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var res Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad output line %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if len(results) != tuples {
		t.Fatalf("chaos run emitted %d results for %d tuples", len(results), tuples)
	}
	var temperrors int
	for i, res := range results {
		if res.Seq != i {
			t.Fatalf("result %d has seq %d; ordered output required", i, res.Seq)
		}
		switch res.Result {
		case spf.Pass, spf.Fail:
		case spf.TempError:
			temperrors++
		default:
			t.Errorf("seq %d: unexpected result %q (detail %q err %q)",
				res.Seq, res.Result, res.Detail, res.Err)
		}
	}
	if stats.Evaluated != tuples {
		t.Errorf("stats.Evaluated = %d, want %d", stats.Evaluated, tuples)
	}
	t.Logf("chaos run: %d tuples, %d temperror, results %v, elapsed %v",
		tuples, temperrors, stats.Results, stats.Elapsed)
	if temperrors == tuples {
		t.Error("every tuple temperrored; the retry path absorbed nothing")
	}
}

// lockedBuffer is a mutex-guarded bytes.Buffer usable as a tracer
// Output while the test reads it back after Close.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestBulkPipelineChaosTraced re-runs the chaos pipeline with tracing
// at sample=1.0: every tuple must still produce its result line, every
// tuple must export a bulkspf.tuple root span, resolver spans must
// share their parents' trace IDs, and closing the tracer must leave no
// goroutines behind (leak-checked). This is the fault-injection leg of
// the tracing subsystem's -race coverage (`make trace-race`).
func TestBulkPipelineChaosTraced(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	seed := chaosSeed(t)

	fabric := netsim.NewFabric()
	fabric.SetChaosSeed(seed)
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")

	const domains = 8
	zone := make(map[string]string, domains)
	for i := 0; i < domains; i++ {
		zone[fmt.Sprintf("d%02d.traced.example.", i)] = "v=spf1 ip4:203.0.113.0/24 -all"
	}
	fabricDNS(t, fabric, dnsAddr, "traced.example.", zone)
	fabric.SetDefaultFaults(&netsim.FaultProfile{
		DialFailure: 0.05,
		Loss:        0.12,
		Jitter:      2 * time.Millisecond,
	})

	r := resolver.New(resolver.Config{
		Server:     dnsAddr.String(),
		Dialer:     fabric,
		DisableTCP: true,
		Timeout:    150 * time.Millisecond,
	})

	spans := &lockedBuffer{}
	tracer := trace.New(trace.Config{
		SampleRate:    1,
		SlowThreshold: 50 * time.Millisecond,
		Output:        spans,
	})

	const tuples = 60
	var in bytes.Buffer
	for i := 0; i < tuples; i++ {
		fmt.Fprintf(&in, `{"ip":"203.0.113.9","mail_from":"u%d@d%02d.traced.example"}`+"\n",
			i, i%domains)
	}

	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := New(Config{Resolver: r, Workers: 6, Tracer: tracer}).Run(ctx, &in, &out)
	if err != nil {
		t.Fatalf("traced run under chaos: %v", err)
	}
	if stats.Evaluated != tuples {
		t.Errorf("stats.Evaluated = %d, want %d", stats.Evaluated, tuples)
	}
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer Close: %v", err)
	}

	lines := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines++
	}
	if lines != tuples {
		t.Fatalf("traced chaos run emitted %d results for %d tuples", lines, tuples)
	}

	// Decode the span stream: one root per tuple, resolver spans nested
	// inside known traces.
	roots := map[string]int{} // trace ID -> bulkspf.tuple roots
	total, resolverSpans, orphaned := 0, 0, 0
	ssc := bufio.NewScanner(bytes.NewReader(spans.Bytes()))
	ssc.Buffer(make([]byte, 64*1024), 1<<20)
	for ssc.Scan() {
		rec, err := trace.ParseRecord(ssc.Bytes())
		if err != nil {
			t.Fatalf("undecodable span line %q: %v", ssc.Text(), err)
		}
		total++
		switch {
		case rec.Name == "bulkspf.tuple":
			if rec.Parent != "" {
				t.Errorf("bulkspf.tuple span %s has parent %s, want root", rec.Span, rec.Parent)
			}
			roots[rec.Trace]++
		case rec.Family() == "resolver":
			resolverSpans++
			if rec.Parent == "" {
				orphaned++
			}
		}
	}
	if err := ssc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(roots) != tuples {
		t.Errorf("span stream holds %d distinct tuple traces, want %d (total %d spans)",
			len(roots), tuples, total)
	}
	for id, n := range roots {
		if n != 1 {
			t.Errorf("trace %s has %d bulkspf.tuple roots, want 1", id, n)
		}
	}
	if resolverSpans == 0 {
		t.Error("no resolver spans exported under sample=1.0 chaos")
	}
	if orphaned > 0 {
		t.Errorf("%d resolver spans have no parent", orphaned)
	}
	t.Logf("traced chaos run: %d spans across %d traces, %d resolver spans",
		total, len(roots), resolverSpans)
}

package bulkspf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/leaktest"
	"sendervalid/internal/spf"
)

// mapResolver is an in-memory spf.Resolver: TXT and A records keyed by
// canonicalized (lowercased, no trailing dot) names.
type mapResolver struct {
	txt map[string][]string
	a   map[string][]netip.Addr
}

func key(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

func (m *mapResolver) LookupTXT(_ context.Context, name string) ([]string, error) {
	return m.txt[key(name)], nil
}
func (m *mapResolver) LookupA(_ context.Context, name string) ([]netip.Addr, error) {
	return m.a[key(name)], nil
}
func (m *mapResolver) LookupAAAA(context.Context, string) ([]netip.Addr, error) { return nil, nil }
func (m *mapResolver) LookupMX(context.Context, string) ([]spf.MXRecord, error) {
	return nil, nil
}
func (m *mapResolver) LookupPTR(context.Context, netip.Addr) ([]string, error) { return nil, nil }

func testResolver() *mapResolver {
	return &mapResolver{
		txt: map[string][]string{
			"pass.example":  {"v=spf1 ip4:203.0.113.0/24 -all"},
			"fail.example":  {"v=spf1 -all"},
			"none.example":  {"plain txt, no policy"},
			"broke.example": {"v=spf1 ip4:not-a-network -all"},
		},
		a: map[string][]netip.Addr{},
	}
}

func runLines(t *testing.T, cfg Config, lines []string) ([]Result, Stats) {
	t.Helper()
	var out bytes.Buffer
	stats, err := New(cfg).Run(context.Background(),
		strings.NewReader(strings.Join(lines, "\n")), &out)
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad output line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	return results, stats
}

func TestRunOrdered(t *testing.T) {
	lines := []string{
		`{"ip":"203.0.113.9","mail_from":"alice@pass.example"}`,
		``, // blank lines are skipped, not numbered
		`{"ip":"198.51.100.9","mail_from":"bob@fail.example"}`,
		`{"ip":"203.0.113.9","domain":"none.example"}`,
		`{"ip":"203.0.113.9","domain":"broke.example"}`,
		`{"ip":"not-an-ip","domain":"pass.example"}`,
		`this is not json`,
		`{"ip":"203.0.113.9"}`, // no domain anywhere
	}
	results, stats := runLines(t, Config{Resolver: testResolver(), Workers: 4}, lines)
	if len(results) != 7 {
		t.Fatalf("got %d results, want 7", len(results))
	}
	want := []spf.Result{
		spf.Pass, spf.Fail, spf.None, spf.PermError, // evaluated
		spf.PermError, spf.PermError, spf.PermError, // input errors
	}
	for i, r := range results {
		if r.Seq != i {
			t.Errorf("result %d has seq %d; ordered output must match input order", i, r.Seq)
		}
		if r.Result != want[i] {
			t.Errorf("seq %d: result %q, want %q (detail %q err %q)",
				i, r.Result, want[i], r.Detail, r.Err)
		}
	}
	for i := 4; i < 7; i++ {
		if results[i].Err == "" {
			t.Errorf("seq %d: input error should set the error field", i)
		}
	}
	// The defaulting rules: helo falls back to the domain, the sender
	// to postmaster@helo.
	if r := results[2]; r.Helo != "none.example" || r.MailFrom != "postmaster@none.example" {
		t.Errorf("defaults not applied: helo=%q mail_from=%q", r.Helo, r.MailFrom)
	}
	if stats.Evaluated != 4 || stats.Errored != 3 {
		t.Errorf("stats = %+v, want 4 evaluated / 3 errored", stats)
	}
	if stats.Results[spf.PermError] != 4 || stats.Results[spf.Pass] != 1 {
		t.Errorf("result histogram = %v", stats.Results)
	}
}

// gateResolver blocks every TXT lookup until released, tracking how
// many are blocked at once — the observable for concurrency tests.
type gateResolver struct {
	mapResolver
	release chan struct{}
	active  atomic.Int32
	peak    atomic.Int32
}

func (g *gateResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	n := g.active.Add(1)
	defer g.active.Add(-1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.mapResolver.LookupTXT(ctx, name)
}

// TestWorkerPoolBounds proves evaluation concurrency equals the worker
// count: with every lookup gated, exactly Workers evaluations are in
// flight, no matter how much input is queued behind them.
func TestWorkerPoolBounds(t *testing.T) {
	g := &gateResolver{mapResolver: *testResolver(), release: make(chan struct{})}
	const workers = 3
	lines := make([]string, 24)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"ip":"203.0.113.9","mail_from":"u%d@pass.example"}`, i)
	}
	done := make(chan struct{})
	var results []Result
	go func() {
		defer close(done)
		results, _ = runLines(t, Config{Resolver: g, Workers: workers}, lines)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for g.active.Load() != workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d evaluations in flight, want %d", g.active.Load(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	// Give the pool a chance to overshoot, then release everything.
	time.Sleep(50 * time.Millisecond)
	close(g.release)
	<-done
	if p := g.peak.Load(); p != workers {
		t.Errorf("peak concurrent evaluations = %d, want exactly %d", p, workers)
	}
	if len(results) != len(lines) {
		t.Errorf("got %d results, want %d", len(results), len(lines))
	}
}

// TestRunCancellation proves a cancelled Run returns promptly with
// ctx's error and leaves no goroutines behind, even with every worker
// mid-evaluation and input still queued.
func TestRunCancellation(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	g := &gateResolver{mapResolver: *testResolver(), release: make(chan struct{})}
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"ip":"203.0.113.9","mail_from":"u%d@pass.example"}`, i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		_, err := New(Config{Resolver: g, Workers: 4}).Run(ctx,
			strings.NewReader(strings.Join(lines, "\n")), &out)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for g.active.Load() != 4 {
		if time.Now().After(deadline) {
			t.Fatal("workers never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestErroredLinesDoNotAbort pins that a torn input tail (a run cut
// off mid-line) still produces a result for every complete line.
func TestErroredLinesDoNotAbort(t *testing.T) {
	lines := []string{
		`{"ip":"203.0.113.9","mail_from":"a@pass.example"}`,
		`{"ip":"203.0.113.9","mail_from":"b@pa`, // torn mid-record
	}
	results, stats := runLines(t, Config{Resolver: testResolver(), Workers: 2}, lines)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[1].Result != spf.PermError || results[1].Err == "" {
		t.Errorf("torn line: %+v, want permerror with error detail", results[1])
	}
	if stats.Errored != 1 {
		t.Errorf("stats.Errored = %d, want 1", stats.Errored)
	}
}

// FuzzAppendResultJSON pins the result-line encoder to
// json.Encoder.Encode byte for byte: HTML characters, control
// characters, U+2028, invalid UTF-8, negative and zero integers, empty
// fields.
func FuzzAppendResultJSON(f *testing.F) {
	f.Add(0, "203.0.113.9", "pass.example", "a@pass.example", "pass.example", "pass", "", 1, 0, "", "", int64(17))
	f.Add(-3, "", "", "", "", "", "", 0, 0, "", "", int64(0))
	f.Add(1<<40, "<ip>&", "a b c", "\xff\xfe@x", "\x00\x1f\x7f", "permerror",
		"see <http://x/?a=1&b=2>", -1, 7, "spf: \"quoted\" \\ detail\n", "bad tuple: \t", int64(-9))
	f.Fuzz(func(t *testing.T, seq int, ip, domain, from, helo, result, exp string, lookups, voids int, detail, errMsg string, micros int64) {
		r := Result{
			Seq: seq, IP: ip, Domain: domain, MailFrom: from, Helo: helo,
			Result: spf.Result(result), Explanation: exp,
			Lookups: lookups, VoidLookups: voids,
			Detail: detail, Err: errMsg, Micros: micros,
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendResultJSON(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendResultJSON:\n got %q\nwant %q", got, want.Bytes())
		}
	})
}

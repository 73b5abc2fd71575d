package bulkspf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"regexp"
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
func TestRunCancellation(t *testing.T) { cancelMidRun(t, 64) }

// TestRunCancellationManySegments is TestRunCancellation with more
// input than the reader may hold: it is blocked handing out a segment
// when the cancellation lands.
func TestRunCancellationManySegments(t *testing.T) { cancelMidRun(t, 5*segmentLines+7) }

func cancelMidRun(t *testing.T, n int) {
	t.Cleanup(leaktest.Check(t))
	g := &gateResolver{mapResolver: *testResolver(), release: make(chan struct{})}
	lines := make([]string, n)
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

// failWriter accepts left bytes, then fails every write.
type failWriter struct {
	left int
	err  error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, w.err
	}
	w.left -= len(p)
	return len(p), nil
}

// TestRunWriteError proves a failing output stops the run: Run returns
// promptly with the writer's error, not the cancellation it caused, and
// leaves no goroutines behind.
func TestRunWriteError(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	boom := errors.New("disk full")
	var in strings.Builder
	for i := 0; i < 20*segmentLines; i++ {
		fmt.Fprintf(&in, `{"ip":"203.0.113.9","mail_from":"u%d@pass.example"}`+"\n", i)
	}
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Resolver: testResolver(), Workers: 2}).Run(context.Background(),
			strings.NewReader(in.String()), &failWriter{left: 1000, err: boom})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "bulkspf: writing results: ") {
			t.Errorf("Run returned %v, want the wrapped write error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the write error")
	}
}

// TestRunOrderAcrossSegments pins the output across segment boundaries:
// around one, two and several segments, blank lines mixed in, at any
// worker count the results come out numbered in input order and, but
// for the timing field, byte-identical to a one-worker run.
func TestRunOrderAcrossSegments(t *testing.T) {
	shapes := []string{
		`{"ip":"203.0.113.9","mail_from":"u%d@pass.example"}`,
		`{"ip":"198.51.100.9","mail_from":"u%d@fail.example"}`,
		`{"ip":"203.0.113.9","domain":"none.example","helo":"h%d.example"}`,
		`{"ip":"203.0.113.9","domain":"broke.example","mail_from":"u%d@x.example"}`,
		`{"ip":"not-an-ip%d","domain":"pass.example"}`,
		`not json %d`,
	}
	micros := regexp.MustCompile(`"micros":-?[0-9]+`)
	for _, n := range []int{segmentLines - 1, segmentLines, segmentLines + 1, 3*segmentLines + 5} {
		var in strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&in, shapes[i%len(shapes)]+"\n", i)
			switch {
			case i%7 == 3:
				in.WriteString("\n")
			case i%11 == 5:
				in.WriteString("  \t \r\n")
			}
		}
		in.WriteString("\n") // a blank last line
		var want []byte
		for _, workers := range []int{1, 2, 7} {
			var out bytes.Buffer
			stats, err := New(Config{Resolver: testResolver(), Workers: workers}).Run(
				context.Background(), strings.NewReader(in.String()), &out)
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.Evaluated + stats.Errored; got != uint64(n) {
				t.Fatalf("%d lines, %d workers: %d results", n, workers, got)
			}
			sc := bufio.NewScanner(&out)
			for seq := 0; sc.Scan(); seq++ {
				var r Result
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Seq != seq {
					t.Fatalf("%d lines, %d workers: line %d is %q (%v), want seq %d", n, workers, seq, sc.Bytes(), err, seq)
				}
			}
			got := micros.ReplaceAll(out.Bytes(), []byte(`"micros":0`))
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%d lines, %d workers: output differs from the one-worker run", n, workers)
			}
		}
	}
}

// seenResolver reports every TXT lookup on seen.
type seenResolver struct {
	mapResolver
	seen chan string
}

func (r *seenResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	r.seen <- name
	return r.mapResolver.LookupTXT(ctx, name)
}

// TestRunTrickle proves a line is evaluated as soon as it arrives:
// each line is written only after the previous one reached the
// resolver, so a segment that waited to fill would stall the test.
func TestRunTrickle(t *testing.T) {
	const n = 5
	r := &seenResolver{mapResolver: *testResolver(), seen: make(chan string, n)}
	pr, pw := io.Pipe()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Resolver: r, Workers: 2}).Run(context.Background(), pr, &out)
		done <- err
	}()
	for i := 0; i < n; i++ {
		fmt.Fprintf(pw, `{"ip":"203.0.113.9","mail_from":"u%d@pass.example"}`+"\n", i)
		select {
		case <-r.seen:
		case <-time.After(5 * time.Second):
			t.Fatalf("line %d was not evaluated before more input arrived", i)
		}
	}
	_ = pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != n {
		t.Errorf("got %d results, want %d", got, n)
	}
}

// TestRunLongLine proves an input line of any length is one more bad
// tuple: the lines after it are still evaluated.
func TestRunLongLine(t *testing.T) {
	lines := []string{
		`{"ip":"203.0.113.9","mail_from":"a@pass.example"}`,
		strings.Repeat("x", 2<<20),
		`{"ip":"203.0.113.9","mail_from":"c@pass.example"}`,
	}
	results, stats := runLines(t, Config{Resolver: testResolver(), Workers: 2}, lines)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if r := results[1]; r.Result != spf.PermError || !strings.HasPrefix(r.Err, "bad tuple: ") {
		t.Errorf("long line: %+v, want a bad tuple permerror", r)
	}
	if r := results[2]; r.Seq != 2 || r.Result != spf.Pass {
		t.Errorf("line after the long one: %+v, want seq 2 pass", r)
	}
	if stats.Evaluated != 2 || stats.Errored != 1 {
		t.Errorf("stats = %+v, want 2 evaluated / 1 errored", stats)
	}
}

// TestRunAllocsPerTuple pins what a tuple costs in allocations,
// pipeline and check_host() together, against an in-memory resolver:
// 7.2 measured, 15.1 with json.Unmarshal decoding every tuple and
// check_host() arming its timeout up front, 19.0 before that with one
// job, result channel and line copy per tuple. The bound leaves 25%
// for a Go release to move it.
func TestRunAllocsPerTuple(t *testing.T) {
	const tuples = 1024
	var in bytes.Buffer
	for i := 0; i < tuples; i++ {
		fmt.Fprintf(&in, `{"ip":"203.0.113.9","mail_from":"u%d@pass.example"}`+"\n", i)
	}
	eval := New(Config{Resolver: testResolver(), Workers: 2})
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := eval.Run(context.Background(), bytes.NewReader(in.Bytes()), io.Discard); err != nil {
			t.Fatal(err)
		}
	}) / tuples
	t.Logf("%.2f allocations per tuple", allocs)
	if allocs > 9 {
		t.Errorf("%.2f allocations per tuple, want ≤ 9", allocs)
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

// FuzzDecodeTuple pins decodeTuple to json.Unmarshal: on every input
// it either declines or yields exactly the Tuple json.Unmarshal does.
func FuzzDecodeTuple(f *testing.F) {
	fields := []string{`"ip":"203.0.113.9"`, `"helo":"mx.example.org"`, `"mail_from":"a@pass.example"`, `"domain":"pass.example"`}
	// Every subset of the four keys, in every order.
	var orders func(prefix, rest []string)
	orders = func(prefix, rest []string) {
		f.Add("{" + strings.Join(prefix, ",") + "}")
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			orders(append(append([]string(nil), prefix...), rest[i]), next)
		}
	}
	orders(nil, fields)
	for _, line := range []string{
		`{"IP":"203.0.113.9","mail_from":"a@pass.example"}`,
		`{"ip":"203.0.113.9","Mail_From":"a@pass.example"}`,
		`{"ip":"203.0.113.9","ip":"198.51.100.1","mail_from":"a@pass.example"}`,
		`{"ip":"203.0.113.9","mail_from":"a@pass.example"}`,
		`{"ip":"203.0.113.9","mail_from":"a\u0040pass.example"}`,
		`{"ip":"203.0.113.9","mail_from":"a\"b@pass.example"}`,
		`{"ip":"203.0.113.9","mail_from":"é@pass.example"}`,
		`{"ip":null,"mail_from":"a@pass.example"}`,
		`{"ip":"203.0.113.9","port":"25"}`,
		`{"ip":"203.0.113.9","mail_from":1}`,
		`{ "ip":"203.0.113.9","mail_from":"a@pass.example"}`,
		`{"ip" : "203.0.113.9"}`,
		`{"ip":"203.0.113.9"} `,
		`{"ip":"203.0.113.9"}garbage`,
		`{"ip":"203.0.113.9"}` + "\n",
		`{"ip":"203.0.113.9",}`,
		`{"ip":"203.0.113.9","mail_from":"b@pa`, // TestErroredLinesDoNotAbort's torn line
		`{}`, `[]`, `"ip"`, ``,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, ok := decodeTuple([]byte(line))
		if !ok {
			return
		}
		var want Tuple
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("decodeTuple accepted %q, json.Unmarshal rejects it: %v", line, err)
		}
		if got != want {
			t.Errorf("decodeTuple(%q) = %+v, json.Unmarshal gives %+v", line, got, want)
		}
	})
}

// TestDecodeTupleFastTier pins that the lines real inputs carry — the
// bulk-spf workload's shape and the README examples, helo last
// included — are decoded without json.Unmarshal.
func TestDecodeTupleFastTier(t *testing.T) {
	for _, line := range []string{
		fmt.Sprintf(`{"ip":%q,"mail_from":%q}`, "198.18.0.1", "spf-test@t01.b0042.spf-test.dns-lab.example"),
		`{"ip":"198.18.0.1","mail_from":"alice@t01.m0001.spf-test.dns-lab.example"}`,
		`{"ip":"198.18.0.2","mail_from":"bob@t12.m0002.spf-test.dns-lab.example","helo":"mx.example.org"}`,
		`{"ip":"198.18.0.3","domain":"t03.m0003.spf-test.dns-lab.example"}`,
	} {
		got, ok := decodeTuple([]byte(line))
		if !ok {
			t.Errorf("%s: declined", line)
			continue
		}
		var want Tuple
		if err := json.Unmarshal([]byte(line), &want); err != nil || got != want {
			t.Errorf("%s: decodeTuple = %+v, json.Unmarshal = %+v (%v)", line, got, want, err)
		}
	}
}

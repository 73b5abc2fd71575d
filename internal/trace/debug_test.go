package trace

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// debugTracer builds a tracer with deterministic ring contents and
// counters: five recent spans (one errored, one slow-promoted, mixed
// families) and one slow-ring span, injected directly so no clock or
// sampler runs.
func debugTracer(t *testing.T) *Tracer {
	t.Helper()
	tr := New(Config{SampleRate: 0.25, SlowThreshold: 50 * time.Millisecond})
	t.Cleanup(func() { _ = tr.Close() })
	tr.metrics.started.Add(120)
	tr.metrics.sampled.Add(30)
	tr.metrics.exported.Add(33)
	tr.metrics.dropped.Add(1)
	tr.metrics.promotedSlow.Add(2)
	tr.metrics.promotedErr.Add(1)

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	recs := []Record{
		{Trace: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1", Span: "a000000000000001",
			Name: "spfcheck", Start: base, DurUS: 2100},
		{Trace: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1", Span: "a000000000000002",
			Parent: "a000000000000001", Name: "spf.check_host", Start: base, DurUS: 2000,
			Attrs: []Attr{{K: "domain", V: "a.example"}, {K: "lookups", V: "3"}}},
		{Trace: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1", Span: "a000000000000003",
			Parent: "a000000000000002", Name: "resolver.exchange", Start: base, DurUS: 1800,
			Attrs: []Attr{{K: "dns.name", V: "a.example."}, {K: "dns.type", V: "TXT"}}},
		{Trace: "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb2", Span: "b000000000000001",
			Name: "probe.smtp", Start: base.Add(time.Second), DurUS: 900,
			Why: "error", Err: "connection refused"},
		{Trace: "ccccccccccccccccccccccccccccccc3", Span: "c000000000000001",
			Name: "resolver.wire", Start: base.Add(2 * time.Second), DurUS: 75000,
			Why: "slow"},
	}
	for _, r := range recs {
		tr.recent.add(r)
	}
	tr.slowRing.add(recs[4])
	return tr
}

// debugRegistry holds one histogram with an exemplar, for the
// exemplars section.
func debugRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	h := telemetry.NewHistogram([]float64{0.01, 0.1, 1})
	h.Observe(0.075)
	h.SetExemplar(0.075, "ccccccccccccccccccccccccccccccc3")
	reg.MustHistogram("dns_serve_duration_seconds", "Serve latency.", h)
	return reg
}

// TestDebugTracesGolden pins the /debug/traces document: the header
// counters, newest-first ring ordering, the min-duration and family
// filters, the per-section cap, and the exemplars section.
func TestDebugTracesGolden(t *testing.T) {
	tr := debugTracer(t)
	reg := debugRegistry()

	var b strings.Builder
	section := func(title string, min time.Duration, family string, n int, reg *telemetry.Registry) {
		fmt.Fprintf(&b, "==== %s ====\n", title)
		tr.writeDebug(&b, min, family, n, reg)
		fmt.Fprintln(&b)
	}
	section("default", 0, "", 50, reg)
	section("min=50ms", 50*time.Millisecond, "", 50, nil)
	section("family=resolver", 0, "resolver", 50, nil)
	section("n=2", 0, "", 2, nil)
	section("family=nomatch", 0, "smtp", 50, nil)
	got := b.String()

	path := filepath.Join("testdata", "debug.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("/debug/traces drifted from golden file (run with -update to regenerate)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDebugHandlerQueryParams drives the HTTP layer: parameter
// parsing, rejection of bad values, and that filters reach writeDebug.
func TestDebugHandlerQueryParams(t *testing.T) {
	tr := debugTracer(t)
	h := tr.DebugHandler(nil)

	for _, tc := range []struct {
		url      string
		status   int
		contains string
		excludes string
	}{
		{"/debug/traces", 200, "resolver.wire", ""},
		{"/debug/traces?min=50ms", 200, "resolver.wire", "probe.smtp"},
		{"/debug/traces?family=probe", 200, "probe.smtp", "spf.check_host"},
		{"/debug/traces?n=1", 200, "resolver.wire", "probe.smtp"},
		{"/debug/traces?min=banana", 400, "", ""},
		{"/debug/traces?n=0", 400, "", ""},
		{"/debug/traces?n=x", 400, "", ""},
	} {
		req := httptest.NewRequest("GET", tc.url, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.url, rw.Code, tc.status)
			continue
		}
		body := rw.Body.String()
		if tc.contains != "" && !strings.Contains(body, tc.contains) {
			t.Errorf("%s: body missing %q:\n%s", tc.url, tc.contains, body)
		}
		if tc.excludes != "" && strings.Contains(body, tc.excludes) {
			t.Errorf("%s: body unexpectedly contains %q:\n%s", tc.url, tc.excludes, body)
		}
	}
}

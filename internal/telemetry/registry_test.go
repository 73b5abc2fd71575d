package telemetry

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every exposition corner:
// every instrument kind, constant labels, a family of sibling series
// told apart by one label, label-value escaping, non-finite gauge values, and
// names chosen so sorted output differs from registration order.
func goldenRegistry() *Registry {
	reg := NewRegistry()

	var reqs Counter
	reqs.Add(42)
	reg.MustCounter("zz_requests_total", "Requests served.", &reqs,
		L("endpoint", "v4"), L("path", `quoted"quote`))

	var reqs6 Counter
	reqs6.Add(7)
	reg.MustCounter("zz_requests_total", "Requests served.", &reqs6,
		L("endpoint", "v6"), L("path", "back\\slash\nnewline"))

	reg.MustGaugeFunc("aa_temperature", "A negative gauge.", func() float64 { return -3.25 })

	reg.MustGaugeFunc("mm_nan", "Not a number.", func() float64 { return math.NaN() })
	reg.MustGaugeFunc("mm_posinf", "Positive infinity.", func() float64 { return math.Inf(1) })
	reg.MustGaugeFunc("mm_neginf", "Negative infinity.", func() float64 { return math.Inf(-1) })
	reg.MustCounterFunc("mm_fn_total", "Counter read through a func.", func() uint64 { return 9 })

	h := NewHistogram([]float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.2, 0.2, 1, 100} {
		h.Observe(v)
	}
	reg.MustHistogram("dd_latency_seconds", "A histogram.", h, L("op", "serve"))

	for policy, n := range map[string]uint64{"t01": 1, "t02": 3, "_overflow": 1} {
		var c Counter
		c.Add(n)
		reg.MustCounter("ff_by_policy_total", "Labeled family.", &c, L("zone", "test"), L("policy", policy))
	}

	return reg
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	path := filepath.Join("testdata", "exposition.golden")
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
		t.Errorf("exposition drifted from golden file (run with -update to regenerate)\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	reg := goldenRegistry()
	var first strings.Builder
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again strings.Builder
		if err := reg.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if first.String() != again.String() {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, first.String(), again.String())
		}
	}
}

func TestRegistryConflicts(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}

	var c Counter
	reg := NewRegistry()
	reg.MustCounter("x_total", "help", &c)

	mustPanic("type conflict", func() { reg.MustGaugeFunc("x_total", "help", func() float64 { return 0 }) })
	mustPanic("help conflict", func() {
		var c2 Counter
		reg.MustCounter("x_total", "different help", &c2)
	})
	mustPanic("duplicate labelset", func() {
		var c2 Counter
		reg.MustCounter("x_total", "help", &c2)
	})
	mustPanic("invalid name", func() { reg.MustCounter("0bad", "help", &c) })
	mustPanic("invalid name char", func() { reg.MustCounter("bad-name", "help", &c) })
	mustPanic("reserved label", func() { reg.MustCounter("y_total", "help", &c, L("__name__", "x")) })

	// Disjoint labelsets under one name are allowed — that is how two
	// endpoints share a family.
	var a, b Counter
	reg2 := NewRegistry()
	reg2.MustCounter("ok_total", "help", &a, L("endpoint", "v4"))
	reg2.MustCounter("ok_total", "help", &b, L("endpoint", "v6"))
}

func TestWriteSummary(t *testing.T) {
	reg := NewRegistry()
	var zero, nonzero Counter
	nonzero.Add(5)
	reg.MustCounter("quiet_total", "Never incremented.", &zero)
	reg.MustCounter("busy_total", "Incremented.", &nonzero)
	h := NewHistogram([]float64{1, 10})
	h.Observe(2)
	reg.MustHistogram("lat_seconds", "Latency.", h)
	empty := NewHistogram([]float64{1})
	reg.MustHistogram("unused_seconds", "Empty histogram.", empty)

	var b strings.Builder
	if err := reg.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "quiet_total") {
		t.Errorf("zero counter rendered in summary:\n%s", out)
	}
	if strings.Contains(out, "unused_seconds") {
		t.Errorf("empty histogram rendered in summary:\n%s", out)
	}
	if !strings.Contains(out, "busy_total 5") {
		t.Errorf("missing busy_total:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds count=1 mean=2") {
		t.Errorf("missing histogram digest:\n%s", out)
	}
}

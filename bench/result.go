package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: the table in README.md and the lists in
// BENCHMARK.json are generated from (and smoke-tested against) these.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is how much worse, as a share of the
	// baseline median, the metric may read before `bench -compare` calls
	// a regression.
	Bound float64
	// Floor (end-to-end only) is an absolute allowance in the metric's
	// unit: a change smaller than it is never a regression. Set-up takes
	// tens of milliseconds on some workloads, where any share of it is
	// scheduler noise.
	Floor float64
	// On names the workloads that report the metric; nil means all.
	// A per-layer metric reads 0 on a workload whose path bypasses the
	// layer; an end-to-end metric is simply absent there.
	On []string
	// Moves (per-layer only) names the end-to-end metric the layer
	// metric should move.
	Moves string
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// boundText renders the bound for the tables.
func (d metricDef) boundText() string {
	if d.Floor > 0 {
		return fmt.Sprintf("max(%.0f%%, %g %s)", 100*d.Bound, d.Floor, d.Unit)
	}
	return fmt.Sprintf("%.0f%%", 100*d.Bound)
}

const (
	wProbe   = "probe-campaign"
	wAuthDNS = "authdns-serve"
	wBulkSPF = "bulk-spf"
	wIngest  = "log-ingest"
)

// driverBound is the bound BENCHMARK.json carries for every end_to_end
// metric. The PR driver refuses a benchmark whose ten-seed quartile
// distance exceeds the metric's bound, and on the 2-vCPU VM this was
// defined on that distance is 8-16% of the median for every timing (the
// host's speed drifts by that much from one minute to the next; see
// README.md), so the driver's file takes the contract's maximum. The
// harness's own gate, `bench -compare`, keeps the design's bounds below
// and says `unresolved` where a file's spread is wider than they are.
const driverBound = 0.25

// commonMetrics are the end-to-end metrics every workload reports:
// BENCHMARK.json's end_to_end list, which the driver gates.
var commonMetrics = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.07},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.07},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Floor: 0.25},
}

// specificMetrics are end-to-end metrics only some workloads have.
// The driver's contract wants every end_to_end metric from every
// workload, so BENCHMARK.json lists these under per_layer (reported by
// the traced run, 0 where they do not apply); `bench -compare` gates
// them on the workloads that report them.
var specificMetrics = []metricDef{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: []string{wProbe, wAuthDNS}},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: []string{wProbe, wAuthDNS}},
	{Name: "dns_queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.07, On: []string{wProbe}},
	{Name: "pipeline_s", Unit: "s", Better: "lower", Bound: 0.07, On: []string{wProbe}},
	{Name: "ingest_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.10, On: []string{wIngest}},
	{Name: "analyze_s", Unit: "s", Better: "lower", Bound: 0.10, On: []string{wIngest}},
}

// endToEndMetrics is everything `bench -compare` gates.
func endToEndMetrics() []metricDef {
	return append(append([]metricDef(nil), commonMetrics...), specificMetrics...)
}

// layerMetrics are the per-layer metrics of the traced run, layer =
// module name.
var layerMetrics = []metricDef{
	// probe-campaign
	{Name: "campaign.task_busy_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "ops_per_s, pipeline_s"},
	{Name: "campaign.sched_idle_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "ops_per_s, pipeline_s"},
	{Name: "campaign.attempts", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "ops_per_s"},
	{Name: "campaign.retried", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "ops_per_s"},
	{Name: "campaign.journal_write_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "cpu_us_per_op, ops_per_s"},
	{Name: "campaign.journal_events", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "cpu_us_per_op"},
	{Name: "campaign.journal_bytes", Unit: "B", Better: "lower", On: []string{wProbe}, Moves: "cpu_us_per_op"},
	{Name: "probe.call_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "p50_ms"},
	{Name: "probe.self_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "p50_ms"},
	{Name: "smtp.dial_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "p50_ms, ops_per_s"},
	{Name: "smtp.write_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "p50_ms, ops_per_s"},
	{Name: "smtp.reply_wait_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "p50_ms, p99_ms, ops_per_s"},
	{Name: "smtp.round_trips", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "p50_ms"},
	{Name: "mtasim.sessions", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "dns_queries_per_s"},
	{Name: "mtasim.spf_checks", Unit: "count", Better: "higher", On: []string{wProbe}, Moves: "dns_queries_per_s"},
	{Name: "mtasim.helo_checks", Unit: "count", Better: "higher", On: []string{wProbe}, Moves: "dns_queries_per_s"},
	{Name: "dnsserver.queries", Unit: "count", Better: "higher", On: []string{wProbe}, Moves: "dns_queries_per_s"},
	{Name: "dnsserver.queries_per_probe", Unit: "1/op", Better: "higher", On: []string{wProbe}, Moves: "dns_queries_per_s"},
	{Name: "dnsserver.refused", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "failed"},
	{Name: "dnsserver.panics", Unit: "count", Better: "lower", On: []string{wProbe}, Moves: "failed"},
	{Name: "dnsserver.log_writeout_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "pipeline_s"},
	{Name: "dnsserver.ingest_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "pipeline_s"},
	{Name: "experiment.analyze_s", Unit: "s", Better: "lower", On: []string{wProbe}, Moves: "pipeline_s"},
	// authdns-serve
	{Name: "dns.client_self_s", Unit: "s", Better: "lower", On: []string{wAuthDNS}, Moves: "p50_ms, ops_per_s"},
	{Name: "dns.wire_rtt_s", Unit: "s", Better: "lower", On: []string{wAuthDNS}, Moves: "p50_ms, ops_per_s"},
	{Name: "dns.tcp_fallbacks", Unit: "count", Better: "lower", On: []string{wAuthDNS}, Moves: "p50_ms"},
	{Name: "policy.respond_s", Unit: "s", Better: "lower", On: []string{wAuthDNS}, Moves: "cpu_us_per_op, p50_ms"},
	{Name: "policy.responds", Unit: "count", Better: "lower", On: []string{wAuthDNS}, Moves: "cpu_us_per_op"},
	{Name: "dnsserver.log_append_s", Unit: "s", Better: "lower", On: []string{wAuthDNS}, Moves: "cpu_us_per_op, ops_per_s"},
	{Name: "dnsserver.log_sink_s", Unit: "s", Better: "lower", On: []string{wAuthDNS}, Moves: "cpu_us_per_op, ops_per_s"},
	{Name: "dnsserver.log_dropped", Unit: "count", Better: "lower", On: []string{wAuthDNS}, Moves: "failed"},
	{Name: "dnsserver.log_bytes", Unit: "B", Better: "lower", On: []string{wAuthDNS}, Moves: "cpu_us_per_op"},
	{Name: "dns.serve_other_s", Unit: "s", Better: "lower", On: []string{wAuthDNS}, Moves: "p50_ms, ops_per_s"},
	// bulk-spf
	{Name: "bulkspf.run_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s, cpu_us_per_op"},
	{Name: "bulkspf.pipeline_overhead_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s, cpu_us_per_op"},
	{Name: "spf.checkhost_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s"},
	{Name: "spf.lookup_calls", Unit: "count", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s"},
	{Name: "spf.lookup_wait_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s"},
	{Name: "spf.eval_self_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s"},
	{Name: "resolver.lookups", Unit: "count", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s, cpu_us_per_op"},
	{Name: "resolver.wire_exchanges", Unit: "count", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s, cpu_us_per_op"},
	{Name: "resolver.wire_wait_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s"},
	{Name: "resolver.self_s", Unit: "s", Better: "lower", On: []string{wBulkSPF}, Moves: "ops_per_s, cpu_us_per_op"},
	{Name: "resolver.hit_ratio", Unit: "ratio", Better: "higher", On: []string{wBulkSPF}, Moves: "ops_per_s"},
	// log-ingest
	{Name: "wal.replay_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "ingest_mb_per_s"},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher", On: []string{wIngest}, Moves: "ingest_mb_per_s"},
	{Name: "dnsserver.decode_serial_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "ops_per_s, ingest_mb_per_s"},
	{Name: "dnsserver.decode_par_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "ops_per_s, ingest_mb_per_s"},
	{Name: "dnsserver.par_speedup", Unit: "ratio", Better: "higher", On: []string{wIngest}, Moves: "ops_per_s, ingest_mb_per_s"},
	{Name: "experiment.analyze_serialparallel_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "analyze_s"},
	{Name: "experiment.analyze_lookuplimits_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "analyze_s"},
	{Name: "experiment.analyze_behaviors_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "analyze_s"},
	{Name: "fingerprint.analyze_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "analyze_s"},
	{Name: "dnsserver.walsink_append_s", Unit: "s", Better: "lower", On: []string{wIngest}, Moves: "setup_s"},
	{Name: "dnsserver.walsink_entries_per_s", Unit: "1/s", Better: "higher", On: []string{wIngest}, Moves: "setup_s"},
	// every workload: ops_per_s of the traced run, which against the
	// untraced ops_per_s gives harness.trace_overhead_share.
	{Name: "harness.traced_ops_per_s", Unit: "ops/s", Better: "higher", Moves: "sanity only"},
}

// allMetrics is every declared metric, in report order.
func allMetrics() []metricDef {
	return append(endToEndMetrics(), layerMetrics...)
}

// tracedMetrics is what a traced run reports: BENCHMARK.json's
// per_layer list.
func tracedMetrics() []metricDef {
	return append(append([]metricDef(nil), specificMetrics...), layerMetrics...)
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Traced    bool              `json:"traced,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Checks lists the output checks that failed; empty when Correct.
	Checks []string `json:"checks,omitempty"`
	// Sizes are the workload's input dimensions, so two results can be
	// refused comparison when they measured different work.
	Sizes map[string]int64 `json:"sizes,omitempty"`
	// Samples states how many per-op latencies p50_ms/p99_ms rest on.
	Samples int64 `json:"latency_samples,omitempty"`
	// Notes are free-form facts worth a line in the report.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64) {
	for _, d := range allMetrics() {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name) // a bug in the harness, not an input
}

func (r *result) failCheck(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// contractLine is the driver's result line: exactly correct,
// attempted, failed and metrics, the metrics being every end_to_end
// metric of BENCHMARK.json (untraced) or every per_layer one (traced).
func (r *result) contractLine() string {
	defs := commonMetrics
	if r.Traced {
		defs = tracedMetrics()
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.Name] = metric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
	return string(b)
}

// fullLine is the whole result, for the parent `go run ./bench`.
func (r *result) fullLine() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// print writes the run's metrics as an aligned table.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d ops attempted, %d failed", r.Workload, mode, r.Attempted, r.Failed)
	if r.Samples > 0 {
		fmt.Fprintf(w, ", %d latency samples", r.Samples)
	}
	fmt.Fprintln(w, " ==")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range allMetrics() {
		// The zeros a traced run reports for layers off this workload's
		// path are for the driver, not for people.
		if m, ok := r.Metrics[d.Name]; ok && d.on(r.Workload) {
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.Name, formatValue(m.Value), m.Unit)
		}
	}
	_ = tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e12:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// workloadRuns holds every run of one workload plus the summary
// `bench -compare` reads.
type workloadRuns struct {
	Sizes    map[string]int64   `json:"sizes"`
	Untraced []*result          `json:"untraced"`
	Traced   []*result          `json:"traced"`
	Summary  map[string]summary `json:"summary"`
}

// summary is the median and quartiles of one metric over the runs.
type summary struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// resultFile is what `bench -out` writes and `bench -compare` reads.
type resultFile struct {
	Env       env                      `json:"env"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

func (f *resultFile) add(name string, untraced, traced *result) {
	wr := f.Workloads[name]
	if wr == nil {
		wr = &workloadRuns{Sizes: untraced.Sizes}
		f.Workloads[name] = wr
	}
	wr.Untraced = append(wr.Untraced, untraced)
	wr.Traced = append(wr.Traced, traced)
}

// summarize fills each workload's Summary: end-to-end metrics from the
// untraced runs, layer metrics from the traced runs, and the tracing
// overhead from both.
func (f *resultFile) summarize() {
	for name, wr := range f.Workloads {
		wr.Summary = map[string]summary{}
		collect := func(runs []*result, defs []metricDef) {
			for _, d := range defs {
				if !d.on(name) {
					continue
				}
				var vals []float64
				for _, r := range runs {
					if m, ok := r.Metrics[d.Name]; ok {
						vals = append(vals, m.Value)
					}
				}
				if len(vals) > 0 {
					wr.Summary[d.Name] = summarizeValues(vals, d.Unit)
				}
			}
		}
		collect(wr.Untraced, endToEndMetrics())
		collect(wr.Traced, layerMetrics)
		var failed, attempted float64
		for _, r := range wr.Untraced {
			failed += float64(r.Failed)
			attempted += float64(r.Attempted)
		}
		if attempted > 0 {
			wr.Summary["failed_share"] = summary{Unit: "ratio", Runs: len(wr.Untraced), Median: failed / attempted, Q1: failed / attempted, Q3: failed / attempted}
		}
		un, tr := wr.Summary["ops_per_s"], wr.Summary["harness.traced_ops_per_s"]
		if un.Median > 0 && tr.Runs > 0 {
			share := 1 - tr.Median/un.Median
			wr.Summary["harness.trace_overhead_share"] = summary{Unit: "ratio", Runs: tr.Runs, Median: share, Q1: share, Q3: share}
		}
	}
}

func summarizeValues(vals []float64, unit string) summary {
	q1, med, q3 := quartiles(vals)
	return summary{Unit: unit, Runs: len(vals), Median: med, Q1: q1, Q3: q3}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// render prints the report: environment, then per workload the
// end-to-end table and the per-layer table.
func (f *resultFile) render(w io.Writer) {
	f.Env.render(w)
	for _, wl := range workloads {
		wr := f.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n## %s — %s\n", wl.name, wl.why)
		fmt.Fprintf(w, "sizes: %s\n", formatSizes(wr.Sizes))
		if n := len(wr.Untraced); n > 0 && wr.Untraced[0].Samples > 0 {
			fmt.Fprintf(w, "latency samples per run: %d\n", wr.Untraced[0].Samples)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "end-to-end (untraced)\tmedian\tq1\tq3\tunit\tbound\n")
		for _, d := range endToEndMetrics() {
			if s, ok := wr.Summary[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\n", d.Name,
					formatValue(s.Median), formatValue(s.Q1), formatValue(s.Q3), s.Unit, d.boundText())
			}
		}
		if s, ok := wr.Summary["failed_share"]; ok {
			fmt.Fprintf(tw, "  failed_share\t%s\t\t\tratio\tno increase\n", formatValue(s.Median))
		}
		fmt.Fprintf(tw, "per-layer (traced)\tmedian\tq1\tq3\tunit\tshould move\n")
		for _, d := range layerMetrics {
			if s, ok := wr.Summary[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\n", d.Name,
					formatValue(s.Median), formatValue(s.Q1), formatValue(s.Q3), s.Unit, d.Moves)
			}
		}
		if s, ok := wr.Summary["harness.trace_overhead_share"]; ok {
			fmt.Fprintf(tw, "  harness.trace_overhead_share\t%s\t\t\tratio\tsanity only\n", formatValue(s.Median))
		}
		_ = tw.Flush()
		for _, runs := range [][]*result{wr.Untraced, wr.Traced} {
			for i, r := range runs {
				for _, c := range r.Checks {
					fmt.Fprintf(w, "CHECK FAILED (run %d, traced=%v): %s\n", i+1, r.Traced, c)
				}
			}
		}
		if len(wr.Traced) > 0 {
			for _, n := range wr.Traced[len(wr.Traced)-1].Notes {
				fmt.Fprintf(w, "note: %s\n", n)
			}
		}
	}
}

func formatSizes(sizes map[string]int64) string {
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d", k, sizes[k])
	}
	return out
}

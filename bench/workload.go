package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup builds the system under test and the inputs for cfg; rec
	// is nil on an untraced run. It is everything before the timed
	// window; its wall time is setup_s.
	setup func(cfg config, rec *recorder) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run executes the timed window and the output checks, and fills
	// res with the metrics, sizes and failed checks.
	run(res *result) error
	// close releases sockets, goroutines and files; artefacts stay in
	// cfg.OutDir for the caller to remove.
	close()
}

var workloads = []*workload{
	{
		name:  wProbe,
		why:   "Full measurement, every layer on the path: campaign, probe, MTA, resolver miss path, authdns synthesis, query log, ingest, analyses. 60 domains x 39 policies per second of budget (about 50k probes).",
		setup: setupProbeCampaign,
	},
	{
		name:  wAuthDNS,
		why:   "Smallest-message serving: dns codec, zone synthesis, query-log write path (codec, AsyncLog, WAL); SMTP, SPF and resolver cache bypassed. 22k validator-mix exchanges per second of budget.",
		setup: setupAuthDNS,
	},
	{
		name:  wBulkSPF,
		why:   "Resolver hit path, singleflight, SPF eval and the bulkspf JSON pipeline with the network out of it (over 99% cache hits). 10 Runs over 7k Zipf-distributed tuples per second of budget.",
		setup: setupBulkSPF,
	},
	{
		name:  wIngest,
		why:   "Query log read side: WAL replay, record decode, four analyses, over a log written through the WAL sink (its write cost is setup_s). 30 passes over 25k entries per second of budget.",
		setup: setupIngest,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runWorkload sets the workload up, runs its timed window and checks,
// and returns the result; failures of the harness itself are reported
// as failed checks so the caller always has a result to print.
func runWorkload(w *workload, cfg config) *result {
	res := &result{
		Workload: w.name,
		Traced:   cfg.Traced,
		Metrics:  map[string]metric{},
		Sizes:    map[string]int64{"clients": int64(cfg.Clients)},
	}
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder()
	}
	t0 := time.Now()
	inst, err := w.setup(cfg, rec)
	if err != nil {
		res.failCheck("set-up: %v", err)
		res.Attempted = 1 // the result line's contract
		return res
	}
	defer inst.close()
	res.set("setup_s", time.Since(t0).Seconds())

	if err := inst.run(res); err != nil {
		res.failCheck("run: %v", err)
	}
	res.set("peak_rss_mb", peakRSSMB())
	if res.Attempted < 1 {
		res.Attempted = 1 // the result line's contract, even when run failed before counting
	}

	if rec != nil {
		// The traced run reports ops_per_s under its own name, and a
		// zero for every layer this workload's path bypasses.
		res.set("harness.traced_ops_per_s", res.Metrics["ops_per_s"].Value)
		for _, d := range tracedMetrics() {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.set(d.Name, 0)
			}
		}
		spans := rec.all()
		if err := writeSpans(filepath.Join(cfg.OutDir, w.name+".trace.json"), spans); err != nil {
			res.failCheck("writing spans: %v", err)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans recorded", len(spans)))
	}
	res.Correct = len(res.Checks) == 0
	return res
}

// window times one stretch of work: wall clock and process CPU.
type window struct {
	t0   time.Time
	cpu0 time.Duration
}

func startWindow() window { return window{t0: time.Now(), cpu0: cpuTime()} }

func (w window) stop() (wall, cpu time.Duration) {
	return time.Since(w.t0), cpuTime() - w.cpu0
}

// checkSelfTimes fails the run when a derived self time is negative
// beyond clock noise: children must fit inside their parents.
func checkSelfTimes(res *result, stats map[spanName]layerStat) {
	for name, st := range stats {
		if st.Self < -st.Total/50 {
			res.failCheck("span %s: self time %v is negative (total %v)", name, st.Self, st.Total)
		}
	}
}

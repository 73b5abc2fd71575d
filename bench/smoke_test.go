package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun is one workload run at 1% scale.
type smokeRun struct {
	workload string
	traced   bool
	res      *result
	spans    []byte // the span file of a traced run
}

var (
	smokeOnce sync.Once
	smokeAll  []smokeRun
)

// smokeRuns runs every workload untraced and traced, once for all the
// tests in this file.
func smokeRuns(t *testing.T) []smokeRun {
	t.Helper()
	smokeOnce.Do(func() {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				dir, err := os.MkdirTemp("", "bench-smoke-")
				if err != nil {
					t.Fatal(err)
				}
				cfg := config{Seed: 1, Seconds: defaultSeconds, Scale: 0.01, Traced: traced, Clients: 2, OutDir: dir}
				run := smokeRun{workload: w.name, traced: traced, res: runWorkload(w, cfg)}
				if traced {
					if run.spans, err = os.ReadFile(filepath.Join(dir, w.name+".trace.json")); err != nil {
						t.Error(err)
					}
				}
				os.RemoveAll(dir)
				smokeAll = append(smokeAll, run)
			}
		}
	})
	return smokeAll
}

// TestSmoke holds what each run prints against BENCHMARK.json: every
// declared metric exactly once, finite, in the declared unit.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness sizes are quoted for %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d = %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	checkDeclared(t, "end_to_end", bj.EndToEnd, commonMetrics, true)
	checkDeclared(t, "per_layer", bj.PerLayer, tracedMetrics(), false)

	for _, run := range smokeRuns(t) {
		id := fmt.Sprintf("%s (traced=%v)", run.workload, run.traced)
		for _, c := range run.res.Checks {
			t.Errorf("%s: output check failed: %s", id, c)
		}
		var line struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(run.res.contractLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: result line: %v", id, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", id, line.Correct, line.Attempted, line.Failed)
		}
		want := bj.EndToEnd
		if run.traced {
			want = bj.PerLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s: %d metrics printed, BENCHMARK.json declares %d", id, len(line.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := line.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", id, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: metric %s in %q, declared %q", id, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", id, d.Name, m.Value)
			case !run.traced && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", id, d.Name, m.Value)
			}
		}
	}
}

// TestSpanFiles asserts each traced run's span file parses and every
// span's parent exists.
func TestSpanFiles(t *testing.T) {
	for _, run := range smokeRuns(t) {
		if run.traced {
			checkSpans(t, run.workload, run.spans)
		}
	}
}

func checkDeclared(t *testing.T, list string, got []declared, want []metricDef, bounded bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json %s has %d metrics, the harness declares %d", list, len(got), len(want))
	}
	seen := map[string]bool{}
	for i, d := range want {
		g := got[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("BENCHMARK.json %s[%d] = %+v, the harness declares %s (%s, %s)", list, i, g, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(g.Name) || seen[g.Name] {
			t.Errorf("BENCHMARK.json %s: name %q is malformed or repeated", list, g.Name)
		}
		seen[g.Name] = true
		if bounded && g.Bound != driverBound {
			t.Errorf("BENCHMARK.json %s: %s bound %v, want the driver bound %v", list, g.Name, g.Bound, driverBound)
		}
	}
}

func checkSpans(t *testing.T, path string, b []byte) {
	t.Helper()
	var spans []struct {
		Name    string `json:"name"`
		Trace   int64  `json:"trace"`
		ID      int64  `json:"id"`
		Parent  int64  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := make(map[int64]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] || s.ID <= 0 {
			t.Fatalf("%s: span id %d repeated or not positive", path, s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has parent %d, which is not in the file", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs || s.Name == "" {
			t.Errorf("%s: span %d (%q) runs %d..%d", path, s.ID, s.Name, s.StartNs, s.EndNs)
		}
	}
}

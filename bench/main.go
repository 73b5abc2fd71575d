// Command bench is the repository's end-to-end benchmark: four
// closed-loop workloads (probe-campaign, authdns-serve, bulk-spf,
// log-ingest) that drive the measurement pipeline through its public
// entry points, check their outputs, and report end-to-end metrics
// from an untraced run and per-layer metrics from a traced run of the
// same inputs. See README.md in this directory.
//
// Usage:
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench -repeat 3 -out A.json            ... three times, all runs stored
//	go run ./bench -compare A.json B.json           verdict per workload and metric
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                                one run; last stdout line is the JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is the run length the sizes in README.md are quoted
// for; BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 20

// config is what one workload run needs to know.
type config struct {
	Seed    int64
	Seconds int
	Scale   float64
	Traced  bool
	Clients int    // C: load-generating clients = workers of the system under test
	OutDir  string // artefacts of this run (journal, logs, trace file)
}

// budget is the reference seconds of work a run is sized for. Every
// workload does a fixed amount of work derived from it (see sizes in
// each workload file): the same flags always give the same inputs.
func (c config) budget() float64 { return float64(c.Seconds) * c.Scale }

// scaled sizes a workload dimension: perSecond units per reference
// second, never below floor.
func (c config) scaled(perSecond float64, floor int) int {
	return max(int(perSecond*c.budget()+0.5), floor)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in-process and print its JSON result as the last line (default: all four, each in a child process)")
		seed     = fs.Int64("seed", 1, "input seed (2 is the hold-out for later claims)")
		seconds  = fs.Int("seconds", defaultSeconds, "reference seconds of work each run is sized for")
		traced   = fs.Int("trace", 0, "1 installs the layer shims and reports per-layer metrics")
		scale    = fs.Float64("scale", 1, "multiplier on every workload size (the smoke test uses 0.01)")
		repeat   = fs.Int("repeat", 1, "with no -workload: run each workload this many times and store every run")
		out      = fs.String("out", "", "with no -workload: write the result file here")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		keep     = fs.Bool("keep", false, "keep the artefact directory (journal, logs, trace files) after a successful run")
		full     = fs.Bool("full", false, "with -workload: also print the workload-specific end-to-end metrics and the sizes (what the parent run reads)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *scale <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -seconds, -scale and -repeat must be positive")
		return 2
	}
	cfg := config{
		Seed:    *seed,
		Seconds: *seconds,
		Scale:   *scale,
		Traced:  *traced != 0,
		Clients: runtime.NumCPU(),
	}

	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		dir, err := makeOutDir()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		cfg.OutDir = dir
		res := runWorkload(w, cfg)
		res.print(stderr)
		line := res.contractLine()
		if *full {
			line = res.fullLine()
		}
		fmt.Fprintln(stdout, line)
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: output checks failed; artefacts kept in %s\n", w.name, dir)
			return 1
		}
		if !*keep {
			removeOutDir(dir)
		}
		return 0
	}

	return runAll(cfg, *repeat, *out, *keep, stdout, stderr)
}

// runAll runs every workload untraced then traced, each run in a fresh
// child process of this binary so peak RSS and warmed caches do not
// leak from one run into the next.
func runAll(cfg config, repeat int, outPath string, keep bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	file := resultFile{Env: captureEnv(cfg), Workloads: map[string]*workloadRuns{}}
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			var pair [2]*result
			for t := 0; t < 2; t++ {
				args := []string{
					"-workload", w.name, "-full",
					"-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds),
					"-scale", fmt.Sprint(cfg.Scale), "-trace", fmt.Sprint(t),
				}
				if keep {
					args = append(args, "-keep")
				}
				res, err := runChild(self, args, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", w.name, t, err)
					return 1
				}
				ok = ok && res.Correct
				pair[t] = res
			}
			file.add(w.name, pair[0], pair[1])
		}
	}
	file.summarize()
	file.render(stdout)
	if outPath != "" {
		if err := file.write(outPath); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses the JSON
// result on its last stdout line. The child's progress goes to stderr.
func runChild(self string, args []string, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	outBytes, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parsing child result: %w", err)
	}
	// A child that printed a result but exited non-zero failed its
	// output checks; the result says so.
	return &res, nil
}

// outBase is where artefacts go: bench/out when run from the
// repository root, the system temp dir otherwise.
func outBase() string {
	if _, err := os.Stat("bench"); err != nil {
		return filepath.Join(os.TempDir(), "sendervalid-bench-out")
	}
	return filepath.Join("bench", "out")
}

// makeOutDir creates a fresh artefact directory for one run.
func makeOutDir() (string, error) {
	if err := os.MkdirAll(outBase(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outBase(), "run-")
}

// removeOutDir deletes a run's artefacts and, if that leaves bench/out
// empty, the directory itself.
func removeOutDir(dir string) {
	_ = os.RemoveAll(dir)
	_ = os.Remove(filepath.Dir(dir)) // fails, harmlessly, while other runs' artefacts remain
}

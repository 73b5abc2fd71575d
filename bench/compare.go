package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"text/tabwriter"
)

// compareFiles prints, per workload, every end-to-end metric of two
// result files (A the baseline, B the candidate) with both medians, the
// bound and a verdict, and returns 1 if any metric regressed.
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either side's run-to-run spread (quartile distance over
//	            median) is wider than the bound, so the medians cannot
//	            say — unless every run of B reads better than every run
//	            of A, which is ok
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			if err = checkComparable(a, b); err == nil {
				return renderComparison(a, b, stdout)
			}
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// checkComparable refuses result files that measured different work or ran
// on a different number of processors.
func checkComparable(a, b *resultFile) error {
	ea, eb := a.Env, b.Env
	switch {
	case ea.NProc != eb.NProc:
		return fmt.Errorf("not comparable: nproc %d vs %d", ea.NProc, eb.NProc)
	case ea.GOMAXPROCS != eb.GOMAXPROCS:
		return fmt.Errorf("not comparable: GOMAXPROCS %d vs %d", ea.GOMAXPROCS, eb.GOMAXPROCS)
	case ea.Seed != eb.Seed:
		return fmt.Errorf("not comparable: seed %d vs %d", ea.Seed, eb.Seed)
	case ea.Seconds != eb.Seconds || ea.Scale != eb.Scale:
		return fmt.Errorf("not comparable: sized for %d s x %g vs %d s x %g", ea.Seconds, ea.Scale, eb.Seconds, eb.Scale)
	}
	for name, wa := range a.Workloads {
		wb := b.Workloads[name]
		if wb == nil {
			return fmt.Errorf("not comparable: %s is missing from the second file", name)
		}
		if !reflect.DeepEqual(wa.Sizes, wb.Sizes) {
			return fmt.Errorf("not comparable: %s sizes differ: %s vs %s", name, formatSizes(wa.Sizes), formatSizes(wb.Sizes))
		}
	}
	return nil
}

func renderComparison(a, b *resultFile, w io.Writer) int {
	regressed := false
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n## %s\n", wl.name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "metric\tA median\tB median\tunit\tchange\tbound\tverdict\n")
		for _, d := range endToEndMetrics() {
			sa, oka := wa.Summary[d.Name]
			sb, okb := wb.Summary[d.Name]
			if !oka || !okb {
				continue
			}
			v := verdict(d, sa, sb, values(wa.Untraced, d.Name), values(wb.Untraced, d.Name))
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", d.Name,
				formatValue(sa.Median), formatValue(sb.Median), d.Unit,
				100*(sb.Median-sa.Median)/sa.Median, d.boundText(), v)
		}
		fa, fb := wa.Summary["failed_share"].Median, wb.Summary["failed_share"].Median
		v := "ok"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "failed_share\t%g\t%g\tratio\t\tno increase\t%s\n", fa, fb, v)
		_ = tw.Flush()
	}
	if regressed {
		return 1
	}
	return 0
}

func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func verdict(d metricDef, a, b summary, runsA, runsB []float64) string {
	// worse > 0 means B is worse than A, in the metric's own direction.
	worse := b.Median - a.Median
	if d.Better == "higher" {
		worse = -worse
	}
	// allowed is the bound in the metric's unit.
	allowed := math.Max(d.Bound*math.Abs(a.Median), d.Floor)
	switch spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1); {
	case spread > allowed && !allBetter(d, runsA, runsB):
		return "unresolved"
	case spread <= allowed && worse > allowed:
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every run of B reads better than every run
// of A.
func allBetter(d metricDef, runsA, runsB []float64) bool {
	if len(runsA) == 0 || len(runsB) == 0 {
		return false
	}
	minA, maxA := minMax(runsA)
	minB, maxB := minMax(runsB)
	if d.Better == "higher" {
		return minB > maxA
	}
	return maxB < minA
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

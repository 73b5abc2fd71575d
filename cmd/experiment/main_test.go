package main

import (
	"bytes"
	"context"
	"flag"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sendervalid/internal/experiment"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(context.Background(), args, nil, &out, &errw)
	return code, out.String(), errw.String()
}

// headings is the fixed order in which the study reports.
var headings = []string{
	"== generating", "Table 1", "Table 2", "Table 3",
	"== NotifyEmail", "Table 4", "Table 6", "Table 7", "Figure 2",
	"== NotifyMX", "Section 6.2",
	"== TwoWeekMX", "Table 5", "Figure 5", "Section 7", "Section 8",
}

var headingRE = regexp.MustCompile(`(?m)^(== \w+|Table \d|Figure \d|Section [\d.]+)`)

// TestStudyEndToEnd runs `experiment -domains 120 -seed 1 -journal
// PREFIX` in-process three times — fresh, again without -resume, again
// with it — and checks what a reader of the command sees: the section
// order, every analysis returned as a value, and the journal dialogue.
// The printed numbers are internal/experiment's golden report's to
// check (TestStudyBubble).
func TestStudyEndToEnd(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "study")
	args := []string{"-domains", "120", "-seed", "1", "-journal", prefix}

	// Fresh run, through the same flags → StudyConfig → RunStudy path
	// run takes, keeping the StudyResult run discards.
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	cfg := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	res, err := experiment.RunStudy(context.Background(), *cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("RunStudy: %v\nstderr: %s", err, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("a clean run wrote to stderr: %s", stderr.String())
	}
	out := stdout.String()

	if got := headingRE.FindAllString(out, -1); !reflect.DeepEqual(got, headings) {
		t.Errorf("section headings\n got %q\nwant %q", got, headings)
	}
	if !regexp.MustCompile(`\ncompleted in [\d.]+m?s\n$`).MatchString(out) {
		t.Errorf("output does not end with the wall-time line: %q", out[max(0, len(out)-60):])
	}
	v := reflect.ValueOf(*res)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("StudyResult.%s is empty", v.Type().Field(i).Name)
		}
	}
	if got, want := res.NotifyMX.ProbesCompleted.Tested, len(res.NotifyPop.MTAs)*len(experiment.CoreTests); got != want {
		t.Errorf("NotifyMX probed %d pairs, want %d", got, want)
	}

	// The journals now hold events: a second fresh run is refused…
	code, _, errOut := runCmd(args...)
	if code != 2 || !regexp.MustCompile(`(?m)^experiment: journal \S+study\.notifymx\.jsonl already has \d+ events; pass -resume to continue it$`).MatchString(errOut) {
		t.Errorf("rerun without -resume: exit %d, stderr %q; want 2 and the refusal", code, errOut)
	}
	// …and a resumed one finds nothing left to probe, and says that its
	// tables are built from this process's (empty) query log.
	code, out, errOut = runCmd(append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("rerun with -resume: exit %d, stderr %s", code, errOut)
	}
	for _, name := range []string{"notifymx", "twoweekmx"} {
		if !regexp.MustCompile(`(?m)^resuming ` + name + `: \d+ pairs already finished in \S+$`).MatchString(out) {
			t.Errorf("no resume notice for %s on stdout:\n%s", name, out)
		}
	}
	if n := strings.Count(errOut, "pairs were finished by an earlier process and left no queries in this process's log; the summary below covers the 0 pairs run now"); n != 2 {
		t.Errorf("%d resumed-run caveats on stderr, want one per probe sweep:\n%s", n, errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-resume"}, "experiment: -resume requires -journal\n"},
		{[]string{"-journal-sync", "sometimes"}, "experiment: "},
		{[]string{"-domains", "0"}, "experiment: -domains must be at least 1, got 0\n"},
		{[]string{"-domains", "-3"}, "experiment: -domains must be at least 1, got -3\n"},
		{[]string{"-workers", "0"}, "experiment: -workers must be at least 1, got 0\n"},
		{[]string{"-workers", "-3"}, "experiment: -workers must be at least 1, got -3\n"},
		{[]string{"-domains", "20", "-timescale", "-1"}, "experiment: -timescale must be a positive finite number, got -1\n"},
		{[]string{"-domains", "20", "-timescale", "0"}, "experiment: -timescale must be a positive finite number, got 0\n"},
		{[]string{"-domains", "20", "-timescale", "NaN"}, "experiment: -timescale must be a positive finite number, got NaN\n"},
		{[]string{"-domains", "20", "-timescale", "Inf"}, "experiment: -timescale must be a positive finite number, got +Inf\n"},
		{[]string{"-definitely-not-a-flag"}, "flag provided but not defined"},
	} {
		code, out, errOut := runCmd(tc.args...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, tc.stderr) {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2 and %q", tc.args, code, out, errOut, tc.stderr)
		}
	}
}

// TestStudyConfigMatchesFlags holds StudyConfig to one field per flag
// and none without one.
func TestStudyConfigMatchesFlags(t *testing.T) {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	studyFlags(fs)
	want := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { want[strings.ReplaceAll(f.Name, "-", "")] = true })
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				walk(f.Type)
				continue
			}
			name := strings.ToLower(f.Name)
			if !want[name] {
				t.Errorf("StudyConfig field %s has no flag", f.Name)
			}
			delete(want, name)
		}
	}
	walk(reflect.TypeOf(experiment.StudyConfig{}))
	for name := range want {
		t.Errorf("flag -%s has no StudyConfig field", name)
	}
}

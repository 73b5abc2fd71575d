package spf

import (
	"context"
	"strings"
	"testing"
)

func findCode(r *LintReport, code string) *Finding {
	for i := range r.Findings {
		if r.Findings[i].Code == code {
			return &r.Findings[i]
		}
	}
	return nil
}

func TestLintRecordClean(t *testing.T) {
	l := &Linter{}
	r := l.LintRecord("example.com", "v=spf1 ip4:192.0.2.0/24 a mx -all")
	for _, f := range r.Findings {
		if f.Severity >= Warning {
			t.Errorf("clean record flagged: %s", f)
		}
	}
	if r.Lookups != 2 {
		t.Errorf("lookups %d, want 2 (a + mx)", r.Lookups)
	}
	if r.MaxSeverity() >= Warning {
		t.Errorf("max severity %s", r.MaxSeverity())
	}
}

func TestLintRecordSyntaxError(t *testing.T) {
	l := &Linter{}
	r := l.LintRecord("example.com", "v=spf1 ipv4:192.0.2.1 -all")
	f := findCode(r, "syntax")
	if f == nil || f.Severity != Error {
		t.Fatalf("syntax finding missing: %v", r.Findings)
	}
	if !strings.Contains(f.Term, "ipv4") {
		t.Errorf("term %q", f.Term)
	}
}

func TestLintRecordPassAll(t *testing.T) {
	l := &Linter{}
	r := l.LintRecord("example.com", "v=spf1 +all")
	if f := findCode(r, "pass-all"); f == nil || f.Severity != Error {
		t.Errorf("+all not flagged: %v", r.Findings)
	}
}

func TestLintRecordUnreachableAndDeadRedirect(t *testing.T) {
	l := &Linter{}
	r := l.LintRecord("example.com", "v=spf1 -all ip4:192.0.2.1 redirect=other.example")
	if findCode(r, "unreachable") == nil {
		t.Errorf("unreachable mechanism not flagged: %v", r.Findings)
	}
	if findCode(r, "dead-redirect") == nil {
		t.Errorf("dead redirect not flagged: %v", r.Findings)
	}
}

func TestLintRecordNoAll(t *testing.T) {
	l := &Linter{}
	r := l.LintRecord("example.com", "v=spf1 ip4:192.0.2.1")
	if findCode(r, "no-all") == nil {
		t.Errorf("missing all not flagged: %v", r.Findings)
	}
	// With a redirect, no-all is fine.
	r = l.LintRecord("example.com", "v=spf1 redirect=_spf.example.com")
	if findCode(r, "no-all") != nil {
		t.Errorf("redirect-terminated record flagged: %v", r.Findings)
	}
}

func TestLintRecordPTRDeprecated(t *testing.T) {
	l := &Linter{}
	r := l.LintRecord("example.com", "v=spf1 ptr -all")
	if f := findCode(r, "ptr"); f == nil || f.Severity != Warning {
		t.Errorf("ptr not flagged: %v", r.Findings)
	}
}

func TestLintRecordLocalLookupLimit(t *testing.T) {
	l := &Linter{}
	terms := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		terms = append(terms, "exists:x"+string(rune('a'+i))+".example.com")
	}
	r := l.LintRecord("example.com", "v=spf1 "+strings.Join(terms, " ")+" -all")
	if f := findCode(r, "lookup-limit"); f == nil || f.Severity != Error {
		t.Errorf("local lookup limit not flagged (%d lookups): %v", r.Lookups, r.Findings)
	}
}

func TestLintTraversal(t *testing.T) {
	res := newMockResolver()
	res.txt["example.com"] = []string{"v=spf1 include:a.example.net include:b.example.net -all"}
	res.txt["a.example.net"] = []string{"v=spf1 a mx exists:x.example.org ?all"}
	res.txt["b.example.net"] = []string{"v=spf1 include:c.example.net ?all"}
	res.txt["c.example.net"] = []string{"v=spf1 ip4:192.0.2.0/24 ?all"}

	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	// 2 top includes + (a, mx, exists) + 1 nested include = 6 lookups.
	if r.Lookups != 6 {
		t.Errorf("lookups %d, want 6", r.Lookups)
	}
	if f := findCode(r, "lookup-limit"); f != nil {
		t.Errorf("under-limit policy flagged: %s", f)
	}
}

func TestLintTraversalOverLimit(t *testing.T) {
	res := newMockResolver()
	// A chain of 12 includes.
	for i := 0; i < 12; i++ {
		name := "l" + string(rune('a'+i)) + ".example.com"
		next := "l" + string(rune('a'+i+1)) + ".example.com"
		res.txt[name] = []string{"v=spf1 include:" + next + " ?all"}
	}
	res.txt["l"+string(rune('a'+12))+".example.com"] = []string{"v=spf1 ?all"}
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "la.example.com")
	if err != nil {
		t.Fatal(err)
	}
	// The walk stops below maxDepth, already past the lookup limit.
	if r.Lookups != maxDepth+1 {
		t.Errorf("lookups %d, want %d", r.Lookups, maxDepth+1)
	}
	if findCode(r, "lookup-limit") == nil {
		t.Errorf("over-limit chain not flagged: %v", r.Findings)
	}
	if findCode(r, "depth") == nil {
		t.Errorf("chain deeper than %d not flagged: %v", maxDepth, r.Findings)
	}
}

func TestLintIncludeLoop(t *testing.T) {
	res := newMockResolver()
	res.txt["x.example.com"] = []string{"v=spf1 include:y.example.com ?all"}
	res.txt["y.example.com"] = []string{"v=spf1 include:x.example.com ?all"}
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "x.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if findCode(r, "include-loop") == nil {
		t.Errorf("loop not flagged: %v", r.Findings)
	}
}

func TestLintIncludeWithoutRecord(t *testing.T) {
	res := newMockResolver()
	res.txt["x.example.com"] = []string{"v=spf1 include:missing.example.com -all"}
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "x.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if f := findCode(r, "include-none"); f == nil || f.Severity != Error {
		t.Errorf("dangling include not flagged: %v", r.Findings)
	}
}

func TestLintMultipleRecords(t *testing.T) {
	res := newMockResolver()
	res.txt["x.example.com"] = []string{"v=spf1 -all", "v=spf1 ~all"}
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "x.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if f := findCode(r, "multiple-records"); f == nil || f.Severity != Error {
		t.Errorf("multiple records not flagged: %v", r.Findings)
	}
}

func TestLintNoRecord(t *testing.T) {
	res := newMockResolver()
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "nothing.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if f := findCode(r, "no-record"); f == nil || f.Severity != Info {
		t.Errorf("missing record: %v", r.Findings)
	}
}

func TestLintRedirectTraversal(t *testing.T) {
	res := newMockResolver()
	res.txt["x.example.com"] = []string{"v=spf1 redirect=_spf.x.example.com"}
	res.txt["_spf.x.example.com"] = []string{"v=spf1 a mx -all"}
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "x.example.com")
	if err != nil {
		t.Fatal(err)
	}
	// redirect (1) + a + mx = 3.
	if r.Lookups != 3 {
		t.Errorf("lookups %d, want 3", r.Lookups)
	}
}

func TestLintMacroInclude(t *testing.T) {
	res := newMockResolver()
	res.txt["x.example.com"] = []string{"v=spf1 include:%{d2}.trusted.example ?all"}
	l := &Linter{Resolver: res}
	r, err := l.Lint(context.Background(), "x.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if findCode(r, "macro-include") == nil {
		t.Errorf("macro include not noted: %v", r.Findings)
	}
}

func TestLintRequiresResolver(t *testing.T) {
	l := &Linter{}
	if _, err := l.Lint(context.Background(), "x.example.com"); err == nil {
		t.Error("Lint without resolver succeeded")
	}
}

func TestLintTransientError(t *testing.T) {
	res := newMockResolver()
	res.failing["broken.example.com"] = errTransient
	l := &Linter{Resolver: res}
	if _, err := l.Lint(context.Background(), "broken.example.com"); err == nil {
		t.Error("transient failure not surfaced")
	}
}

var errTransient = &transientErr{}

type transientErr struct{}

func (*transientErr) Error() string { return "SERVFAIL" }

func TestFindingAndSeverityStrings(t *testing.T) {
	f := Finding{Severity: Warning, Code: "ptr", Term: "ptr", Message: "deprecated"}
	if !strings.Contains(f.String(), "warning[ptr]") {
		t.Errorf("finding string %q", f.String())
	}
	f.Term = ""
	if !strings.Contains(f.String(), "warning[ptr] deprecated") {
		t.Errorf("finding string %q", f.String())
	}
	if Info.String() != "info" || Error.String() != "error" || Severity(9).String() == "" {
		t.Error("severity strings")
	}
	empty := &LintReport{}
	if empty.MaxSeverity() != Severity(-1) {
		t.Error("empty report severity")
	}
}

// Package lint holds module-wide checks that turn the repository's
// ground rules into failing tests. It has no non-test code.
package lint

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// moduleRoot is the directory holding go.mod, relative to this package.
const moduleRoot = "../.."

// TestExportsHaveReaders type-checks the module and matches every use
// to its object. Under internal/, it fails on
//   - (a) an exported func, type, const, var or method that no non-test
//     file in the module uses, apart from its own declaration;
//   - (b) an exported struct field that no non-test file writes: a
//     knob with one value in use. A defaulting fill, x.F = d inside
//     an if whose condition reads x.F, is no write;
//   - (c) an exported struct field that no non-test file reads.
//
// The module root's external test files, api_test.go and
// example_test.go, count as readers too: they use the facade api.go
// re-exports as an importing module would, so a public member earns
// its place there with a runnable Example. Other test files, the
// root's in-package bench_test.go among them, do not count. Methods
// that implement an interface, fields carrying a struct tag and fields
// of values handed to encoding/json or a template package (read by
// reflection) are exempt. Seams kept for tests are listed,
// with their reason, in one allowlist per rule; an entry the check no
// longer reports is itself a failure, so the lists can only shrink.
func TestExportsHaveReaders(t *testing.T) {
	m, err := loadModule(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	found := m.findings()
	for _, rule := range rules {
		allowed := readAllowlist(t, rule.allowlist)
		for _, f := range found[rule.name] {
			qual, _, _ := strings.Cut(f, "\t")
			if allowed[qual] {
				delete(allowed, qual)
				continue
			}
			t.Errorf("%s: %s", rule.message, f)
		}
		for qual := range allowed {
			t.Errorf("%s: %s is no longer reported; delete its line", rule.allowlist, qual)
		}
	}
}

// TestReadersFixture runs TestExportsHaveReaders' rules over the
// module in testdata/fixture, which holds one true positive per rule
// and one case per exemption and write form, and compares the findings
// with testdata/fixture.golden.
func TestReadersFixture(t *testing.T) {
	m, err := loadModule("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	found := m.findings()
	var got strings.Builder
	for _, rule := range rules {
		for _, f := range found[rule.name] {
			got.WriteString(rule.name + "\t" + f + "\n")
		}
	}
	want, err := os.ReadFile("testdata/fixture.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("fixture findings differ from testdata/fixture.golden\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// rules lists the three rules in report order, each with its
// allowlist file and failure message.
var rules = []struct{ name, allowlist, message string }{
	{ruleUnused, "allowlist.txt", "exported, never used outside tests"},
	{ruleUnwritten, "allowlist-unwritten.txt", "field never written outside tests"},
	{ruleUnread, "allowlist-unread.txt", "field never read outside tests"},
}

// readAllowlist reads an allowlist file: one qualified name per line,
// followed by its reason; blank lines and #-comments are skipped. A
// line without a reason fails the test.
func readAllowlist(t *testing.T, file string) map[string]bool {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		qual, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", file, qual)
		}
		allowed[qual] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

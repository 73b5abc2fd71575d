package lint

import (
	"bufio"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// rawTime names the functions of package time that read or wait on the
// wall clock. allowlist-time.txt is the inventory of their callers;
// virtual time comes from testing/synctest, whose bubble gives these
// same calls its clock.
var rawTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Since": true,
}

// TestNoRawTime fails on a use of a rawTime function in a non-test file
// of the module beyond what allowlist-time.txt lists for that file. An
// entry lists one file, its count and why; a count that no longer
// matches fails too, so the list can only shrink. bench/ is out of
// scope: a benchmark harness measures wall time by design.
func TestNoRawTime(t *testing.T) {
	m, err := loadModule(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	found := m.rawTimeUses()
	for file := range found {
		if strings.HasPrefix(file, "bench/") {
			delete(found, file)
		}
	}
	for file, want := range readTimeAllowlist(t, "allowlist-time.txt") {
		switch got := found[file]; {
		case want == 0:
			t.Errorf("allowlist-time.txt: %s lists 0 raw time calls; delete the line", file)
		case got != want:
			t.Errorf("allowlist-time.txt: %s lists %d raw time calls, the file has %d; set the count (or delete the line at 0)", file, want, got)
		}
		delete(found, file)
	}
	for file, n := range found {
		t.Errorf("%s: %d raw time calls (time.Now, Sleep, After, AfterFunc, NewTimer, NewTicker, Since) outside allowlist-time.txt", file, n)
	}
}

// TestNoRawTimeFixture: the fixture module's call through an aliased
// time import is found; a Now method of its own type is not.
func TestNoRawTimeFixture(t *testing.T) {
	m, err := loadModule("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.rawTimeUses(), map[string]int{"internal/cases/clock.go": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("raw time uses %v, want %v", got, want)
	}
}

// rawTimeUses counts, per non-test file (relative to the module root),
// the identifiers that refer to a rawTime function of package time. The
// root's external test files, which loadModule also checks, are skipped.
func (m *module) rawTimeUses() map[string]int {
	out := map[string]int{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Signature().Recv() != nil || !rawTime[fn.Name()] {
				continue
			}
			file := m.fset.Position(id.Pos()).Filename
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			rel, _ := filepath.Rel(m.root, file)
			out[filepath.ToSlash(rel)]++
		}
	}
	return out
}

// readTimeAllowlist reads allowlist-time.txt: a file, its count and the
// reason per line; blank lines and #-comments are skipped.
func readTimeAllowlist(t *testing.T, file string) map[string]int {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("%s: %q is not <file> <count> <reason>", file, line)
			continue
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Errorf("%s: %q: %v", file, line, err)
		}
		out[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

package lint

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlagsInREADME fails on a command-line flag registered in cmd/ or
// internal/cli that README.md never names as -<flag>, and on a -<flag>
// that a command's bullet of README's "Every flag, by command" list
// names but neither that command nor internal/cli (the shared study and
// tracing flags) registers.
func TestFlagsInREADME(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(moduleRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, pattern := range []string{"cmd/*/*.go", "internal/cli/*.go"} {
		m, err := filepath.Glob(filepath.Join(moduleRoot, pattern))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	var missing []string
	registers := make(map[string]bool) // "<directory> -<flag>"
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(path))
		for _, name := range flagNames(f) {
			registers[dir+" -"+name] = true
			named := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
			if !named.Match(readme) {
				rel, _ := filepath.Rel(moduleRoot, path)
				missing = append(missing, "-"+name+"\t"+filepath.ToSlash(rel))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("flag not named in README.md: %s", m)
	}

	bullets := readmeFlagBullets(t, string(readme))
	for _, cmd := range slices.Sorted(maps.Keys(bullets)) {
		for _, name := range bullets[cmd] {
			if !registers[cmd+" -"+name] && !registers["cli -"+name] {
				t.Errorf("README.md lists -%s under %s, which does not register it", name, cmd)
			}
		}
	}
}

// readmeFlagBullets maps each command of README's "Every flag, by
// command" list to the -<flag> names its bullet mentions. A bullet
// opens "- `command`:" and continues on indented lines; the first
// other line after the list has begun ends it.
func readmeFlagBullets(t *testing.T, readme string) map[string][]string {
	_, list, ok := strings.Cut(readme, "Every flag, by command")
	if !ok {
		t.Fatal(`README.md has no "Every flag, by command" list`)
	}
	flagRef := regexp.MustCompile(`(?:^|[^\w-])-([a-z][a-z0-9-]*)`)
	bullets := make(map[string][]string)
	cmd := ""
	for _, line := range strings.Split(list, "\n") {
		switch {
		case strings.HasPrefix(line, "- `"):
			cmd, _, _ = strings.Cut(line[len("- `"):], "`")
		case cmd != "" && strings.HasPrefix(line, "  "):
		case cmd != "":
			return bullets
		default:
			continue // the list's introduction
		}
		for _, m := range flagRef.FindAllStringSubmatch(line, -1) {
			bullets[cmd] = append(bullets[cmd], m[1])
		}
	}
	return bullets
}

// flagNames lists the names a file registers through the flag
// package's FlagSet methods: the name is the first argument, or the
// second for the *Var forms, which take the destination first.
func flagNames(f *ast.File) []string {
	registers := map[string]bool{
		"Bool": true, "Duration": true, "Float64": true, "Func": true, "Int": true,
		"Int64": true, "String": true, "Uint": true, "Uint64": true, "Var": true,
		"BoolVar": true, "DurationVar": true, "Float64Var": true, "IntVar": true,
		"Int64Var": true, "StringVar": true, "UintVar": true, "Uint64Var": true,
		"TextVar": true, "BoolFunc": true,
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !registers[sel.Sel.Name] {
			return true
		}
		i := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			i = 1
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}

// TestMakeTargetsInHeader fails on a .PHONY Makefile target that the
// Makefile's header comment does not name in backquotes, as `target`
// or `make target …`.
func TestMakeTargetsInHeader(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join(moduleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var header []string
	var phony []string
	inHeader := true
	for _, line := range strings.Split(string(mk), "\n") {
		if inHeader && strings.HasPrefix(line, "#") {
			header = append(header, strings.TrimPrefix(line, "#"))
			continue
		}
		inHeader = false
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			phony = append(phony, strings.Fields(rest)...)
		}
	}
	named := map[string]bool{}
	for _, span := range regexp.MustCompile("`([^`]*)`").FindAllStringSubmatch(strings.Join(header, " "), -1) {
		words := strings.Fields(span[1])
		switch {
		case len(words) > 1 && words[0] == "make":
			named[words[1]] = true
		case len(words) == 1:
			named[words[0]] = true
		}
	}
	if len(phony) == 0 {
		t.Fatal("Makefile declares no .PHONY targets")
	}
	for _, target := range phony {
		if !named[target] {
			t.Errorf("Makefile target %s is not named in the header comment", target)
		}
	}
}

// TestMakeRunPatterns fails on a `-run '<re>'` in the Makefile with an
// alternative (a |-separated part of <re>) that names no Test, Fuzz,
// Example or Benchmark function in the packages its command line
// lists: a deleted or renamed test would otherwise leave its target
// running nothing, and passing.
func TestMakeRunPatterns(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join(moduleRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	var checked int
	for _, line := range strings.Split(strings.ReplaceAll(string(mk), "\\\n", " "), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var names []string
		for _, arg := range strings.Fields(line) {
			if strings.HasPrefix(arg, "./") {
				names = append(names, testFuncs(t, arg)...)
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			re := regexp.MustCompile(alt)
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("Makefile: -run alternative %q matches no test in %s", alt, strings.TrimSpace(line))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in the Makefile")
	}
}

// testFuncs lists the Test, Fuzz, Example and Benchmark functions in
// the test files of the packages a go command's package argument
// names: one directory, or every directory below it for a /... pattern.
func testFuncs(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "...")
	var names []string
	err := filepath.WalkDir(filepath.Join(moduleRoot, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || !recursive && path != filepath.Join(moduleRoot, dir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

var testFunc = regexp.MustCompile(`^(Test|Fuzz|Example|Benchmark)`)

// TestBenchmarksNameWorkload fails on a Benchmark function whose doc
// comment neither names, in backquotes, a BENCHMARK.json workload that
// runs its code path (the end-to-end figure a change to that path must
// show up in) nor starts with "Diagnostic:".
func TestBenchmarksNameWorkload(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(moduleRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	names := func(doc string) bool {
		for _, w := range spec.Workloads {
			if strings.Contains(doc, "`"+w.Name+"`") {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			if doc := fn.Doc.Text(); !strings.HasPrefix(doc, "Diagnostic:") && !names(doc) {
				rel, _ := filepath.Rel(moduleRoot, fset.Position(fn.Pos()).Filename)
				t.Errorf("%s names no BENCHMARK.json workload and is not marked Diagnostic: (%s)", fn.Name.Name, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocTestNames fails on a Test, Benchmark or Fuzz name inside a
// backquoted span of README.md, DESIGN.md or EXPERIMENTS.md that names
// no function in any test file of the module: a deleted or renamed
// test would otherwise leave the docs citing it as evidence. The
// history files (CHANGES.md, ROADMAP.md) and bench/README.md are not
// checked.
func TestDocTestNames(t *testing.T) {
	defined := map[string]bool{}
	for _, name := range testFuncs(t, "./...") {
		defined[name] = true
	}
	span := regexp.MustCompile("`([^`]*)`")
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	var checked int
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(moduleRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range span.FindAllSubmatch(raw, -1) {
			for _, n := range name.FindAll(s[1], -1) {
				if seen[string(n)] {
					continue
				}
				seen[string(n)] = true
				checked++
				if !defined[string(n)] {
					t.Errorf("%s names %s, which no test file defines", doc, n)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test name in the docs")
	}
}

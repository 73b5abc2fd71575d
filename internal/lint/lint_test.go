// Package lint holds module-wide checks that turn the repository's
// ground rules into failing tests. It has no non-test code.
package lint

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// moduleRoot is the directory holding go.mod, relative to this package.
const moduleRoot = "../.."

// TestExportsHaveReaders fails on every exported func, method, type,
// const or var declared in a non-test file under internal/ whose name
// no non-test file in the module uses as an identifier, apart from its
// own declaration. Matching is by bare name, so a name shared with any
// used identifier is never flagged: the check misses some dead code but
// never reports live code. Seams kept for other packages' tests are
// listed, with their reason, in allowlist.txt; an entry the check no
// longer reports is itself a failure, so the list can only shrink.
func TestExportsHaveReaders(t *testing.T) {
	fset := token.NewFileSet()
	var exports []declared
	decl := map[token.Pos]bool{}
	uses := map[string]int{}
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(moduleRoot, path)
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			for _, e := range exportsOf(f) {
				decl[e.ident.Pos()] = true
				exports = append(exports, e)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if !decl[id.Pos()] {
					uses[id.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := readAllowlist(t)
	var unread []string
	for _, e := range exports {
		if uses[e.ident.Name] > 0 {
			continue
		}
		if allowed[e.qual] {
			delete(allowed, e.qual)
			continue
		}
		unread = append(unread, e.qual+"\t"+fset.Position(e.ident.Pos()).String())
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("exported, never read outside tests: %s", u)
	}
	for qual := range allowed {
		t.Errorf("allowlist.txt: %s now has a non-test reader or is gone; delete its line", qual)
	}
}

// declared is one exported name declared at package level.
type declared struct {
	qual  string // pkg.Name or pkg.Type.Method
	ident *ast.Ident
}

// exportsOf lists the exported package-level names a file declares.
func exportsOf(f *ast.File) []declared {
	pkg := f.Name.Name
	var out []declared
	add := func(id *ast.Ident, qual string) {
		if id.IsExported() {
			out = append(out, declared{qual: qual, ident: id})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name)
				continue
			}
			add(d.Name, pkg+"."+receiverType(d.Recv.List[0].Type)+"."+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, pkg+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

// receiverType names a method's receiver type without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// readAllowlist reads allowlist.txt: one qualified name per line,
// followed by its reason; blank lines and #-comments are skipped. A
// line without a reason fails the test.
func readAllowlist(t *testing.T) map[string]bool {
	f, err := os.Open("allowlist.txt")
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
			t.Errorf("allowlist.txt: %s has no reason", qual)
		}
		allowed[qual] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

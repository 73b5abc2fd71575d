package cli

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestUsageCommentsMatchFlags keeps each command's package-doc usage
// synopsis honest: every flag cmd/<name>/main.go registers — directly
// on its FlagSet or through this package's Study/Trace.Register — must
// appear in the synopsis (the preformatted lines of the package doc),
// and the synopsis must name no flag that is not registered.
func TestUsageCommentsMatchFlags(t *testing.T) {
	shared := map[string][]string{"Study": registered((&Study{}).Register), "Trace": registered((&Trace{}).Register)}
	mains, err := filepath.Glob("../../cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found: %v", err)
	}
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		flags := flagsRegistered(file, shared)
		if len(flags) == 0 {
			t.Errorf("%s: found no registered flags; has the registration idiom changed?", cmd)
		}
		doc := flagsInSynopsis(file.Doc.Text())
		for name := range flags {
			if !doc[name] {
				t.Errorf("cmd/%s registers -%s but its Usage comment does not mention it", cmd, name)
			}
		}
		for name := range doc {
			if !flags[name] {
				t.Errorf("cmd/%s's Usage comment mentions -%s, which it does not register", cmd, name)
			}
		}
	}
}

// registered lists the flags a Register method binds.
func registered(register func(*flag.FlagSet)) []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// flagsRegistered collects the flag names a command file registers:
// fs.String("name", …) and fs.StringVar(&v, "name", …) calls of any
// flag type, plus the shared sets behind x.Register(fs) where x is a
// cli.Study or cli.Trace variable, or a field path ending in one.
func flagsRegistered(file *ast.File, shared map[string][]string) map[string]bool {
	varType := map[string]string{} // identifier → "Study" | "Trace"
	ast.Inspect(file, func(n ast.Node) bool {
		if spec, ok := n.(*ast.ValueSpec); ok {
			if sel, ok := spec.Type.(*ast.SelectorExpr); ok && shared[sel.Sel.Name] != nil {
				for _, name := range spec.Names {
					varType[name.Name] = sel.Sel.Name
				}
			}
		}
		return true
	})
	flags := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method := sel.Sel.Name
		if method == "Register" {
			typ := ""
			switch x := sel.X.(type) {
			case *ast.Ident:
				typ = varType[x.Name]
			case *ast.SelectorExpr:
				typ = x.Sel.Name
			}
			for _, name := range shared[typ] {
				flags[name] = true
			}
			return true
		}
		arg := 0
		if strings.HasSuffix(method, "Var") {
			method, arg = strings.TrimSuffix(method, "Var"), 1
		}
		switch method {
		case "String", "Int", "Int64", "Float64", "Bool", "Duration":
		default:
			return true
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
		}
		return true
	})
	return flags
}

var (
	quoted  = regexp.MustCompile(`"[^"]*"`)
	flagRef = regexp.MustCompile(`(?:^|[\s\[(|])-([a-z][a-z0-9-]*)`)
)

// flagsInSynopsis returns the flags a package doc's preformatted lines
// name, ignoring example values in double quotes ("v=spf1 -all").
func flagsInSynopsis(doc string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "\t") {
			continue
		}
		for _, m := range flagRef.FindAllStringSubmatch(quoted.ReplaceAllString(line, `""`), -1) {
			out[m[1]] = true
		}
	}
	return out
}

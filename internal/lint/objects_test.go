package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The three rules TestExportsHaveReaders checks, each with its own
// allowlist file.
const (
	ruleUnused    = "unused"    // (a) an exported object no non-test file uses
	ruleUnwritten = "unwritten" // (b) an exported field no non-test file writes
	ruleUnread    = "unread"    // (c) an exported field no non-test file reads
)

// module is every package of one Go module, type-checked from the
// non-test files alone.
type module struct {
	root string // directory holding go.mod
	path string // module path
	fset *token.FileSet
	pkgs []*checked // in dependency order
}

type checked struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule type-checks the non-test files of every package in the
// module rooted at dir, and the root package's external test files
// (api_test.go and example_test.go, package <root>_test): they use the
// facade the way an importing module would, so their uses count. The
// root's in-package test files (bench_test.go) are not checked.
// `go list -deps` yields the packages in dependency order; module
// packages are checked from source, and the standard library is read
// from the export data `-export` names.
func loadModule(dir string) (*module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	local, exports, err := goList(dir, "./...")
	if err != nil {
		return nil, err
	}
	var root *listed
	for i, p := range local {
		if p.ImportPath == p.Module.Path {
			root = &local[i]
		}
	}
	// The external test files may import packages no non-test file
	// does; list those for their export data.
	var extra []string
	if root != nil {
		for _, imp := range root.XTestImports {
			if exports[imp] == "" && !strings.HasPrefix(imp, root.Module.Path) {
				extra = append(extra, imp)
			}
		}
	}
	if len(extra) > 0 {
		_, more, err := goList(dir, extra...)
		if err != nil {
			return nil, err
		}
		maps.Copy(exports, more)
	}

	m := &module{root: dir, fset: token.NewFileSet()}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	byPath := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	check := func(path, dir string, files []string, goVersion string) error {
		c := &checked{path: path, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range files {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp, GoVersion: "go" + goVersion}
		var err error
		if c.types, err = conf.Check(path, m.fset, c.files, c.info); err != nil {
			return err
		}
		byPath[path] = c.types
		m.pkgs = append(m.pkgs, c)
		return nil
	}
	for _, p := range local {
		m.path = p.Module.Path
		if err := check(p.ImportPath, p.Dir, p.GoFiles, p.Module.GoVersion); err != nil {
			return nil, err
		}
	}
	if root != nil && len(root.XTestGoFiles) > 0 {
		if err := check(root.ImportPath+"_test", root.Dir, root.XTestGoFiles, root.Module.GoVersion); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// listed is the part of a `go list -json` record loadModule reads.
type listed struct {
	ImportPath, Dir, Export    string
	GoFiles                    []string
	XTestGoFiles, XTestImports []string
	Standard                   bool
	Module                     *struct{ Path, GoVersion string }
}

// goList runs `go list -deps -export` on the patterns in dir and
// returns the module's packages in dependency order and the export
// data file of each standard-library package.
func goList(dir string, patterns ...string) (local []listed, exports map[string]string, err error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,XTestGoFiles,XTestImports,Export,Standard,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports = map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, nil, err
		}
		switch {
		case p.Standard:
			exports[p.ImportPath] = p.Export
		case p.Module == nil:
			return nil, nil, fmt.Errorf("%s: not in a module", p.ImportPath)
		default:
			local = append(local, p)
		}
	}
	return local, exports, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// candidate is one exported object or struct field declared in a
// non-test file under internal/.
type candidate struct {
	qual   string       // pkg.Name, pkg.Type.Method or pkg.Type.Field
	obj    types.Object // the declared object
	decl   ast.Node     // its declaration: uses inside it do not count
	tagged bool         // a field carrying a struct tag
}

// findings applies the three rules to the module and returns, per
// rule, "qual\tfile:line" lines in sorted order.
func (m *module) findings() map[string][]string {
	objs, fields := m.declared()
	decl := map[types.Object]ast.Node{}
	for _, c := range objs {
		decl[c.obj] = c.decl
	}

	uses := map[types.Object]bool{}
	written := map[types.Object]bool{}
	read := map[types.Object]bool{}
	for _, p := range m.pkgs {
		writeOnly, recvs := access(p, written, read)
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if !writeOnly[id] {
					read[v] = true
				}
				continue
			}
			if recvs[id] {
				continue
			}
			if d := decl[obj]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			uses[obj] = true
		}
	}

	ifaces := m.interfaces()
	out := map[string][]string{}
	report := func(rule string, c candidate) {
		out[rule] = append(out[rule], c.qual+"\t"+m.position(c.obj.Pos()))
	}
	for _, c := range objs {
		if uses[c.obj] {
			continue
		}
		if fn, ok := c.obj.(*types.Func); ok && fn.Signature().Recv() != nil &&
			implements(fn, ifaces) {
			continue
		}
		report(ruleUnused, c)
	}
	for _, c := range fields {
		if c.tagged {
			continue
		}
		if !written[c.obj] {
			report(ruleUnwritten, c)
		}
		if !read[c.obj] {
			report(ruleUnread, c)
		}
	}
	for _, lines := range out {
		sort.Strings(lines)
	}
	return out
}

// declared lists the exported package-level objects, methods and
// struct fields of the module's internal/ packages.
func (m *module) declared() (objs, fields []candidate) {
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, m.path+"/internal/") {
			continue
		}
		pkg := p.types.Name()
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					c := candidate{qual: pkg + "." + d.Name.Name, obj: fn, decl: d}
					if recv := fn.Signature().Recv(); recv != nil {
						c.qual = pkg + "." + typeName(recv.Type()).Name() + "." + d.Name.Name
					}
					objs = append(objs, c)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							tn := p.info.Defs[s.Name].(*types.TypeName)
							qual := pkg + "." + s.Name.Name
							if s.Name.IsExported() {
								objs = append(objs, candidate{qual: qual, obj: tn, decl: s})
							}
							fields = append(fields, structFields(p.info, s.Type, qual)...)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									objs = append(objs, candidate{qual: pkg + "." + id.Name, obj: p.info.Defs[id], decl: s})
								}
							}
						}
					}
				}
			}
		}
	}
	return objs, fields
}

// structFields lists the exported named fields of every struct type
// written inside e, nested struct types included (pkg.Type.Outer.Inner).
func structFields(info *types.Info, e ast.Expr, prefix string) []candidate {
	var out []candidate
	ast.Inspect(e, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.IsExported() {
					out = append(out, candidate{qual: prefix + "." + id.Name, obj: info.Defs[id], tagged: f.Tag != nil})
				}
				out = append(out, structFields(info, f.Type, prefix+"."+id.Name)...)
			}
		}
		return false
	})
	return out
}

// access marks in written every field one of p's files writes, and in
// read every field a value handed to encoding/json or a template
// package carries, since those read fields by reflection. A defaulting
// fill, an assignment to x.F inside an if whose condition reads x.F
// (if x.F <= 0 { x.F = 32 }), is no write: it supplies the value no
// caller set. It returns the field identifiers that are only written,
// never read (a composite-literal key, an assignment's or ++'s left
// side), and the receiver type identifiers of method declarations,
// which do not count as uses of the type.
func access(p *checked, written, read map[types.Object]bool) (writeOnly, recvs map[*ast.Ident]bool) {
	writeOnly = map[*ast.Ident]bool{}
	recvs = map[*ast.Ident]bool{}
	// chain marks as written the field G an lvalue x.F.G (or x.F.G[i])
	// stores into and each field it writes through, F; with only, it
	// also marks them as not read.
	chain := func(e ast.Expr, only bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				v, ok := p.info.Uses[x.Sel].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				written[origin(v)] = true
				if only {
					writeOnly[x.Sel] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	fills := map[ast.Expr]bool{} // the left sides of defaulting fills
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				cond := map[string]bool{}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if sel, ok := c.(*ast.SelectorExpr); ok {
						cond[types.ExprString(sel)] = true
					}
					return true
				})
				ast.Inspect(n.Body, func(b ast.Node) bool {
					if as, ok := b.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
							if !ok || !cond[types.ExprString(sel)] {
								continue
							}
							if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
								fills[lhs] = true
							}
						}
					}
					return true
				})
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if fills[lhs] {
						sel := ast.Unparen(lhs).(*ast.SelectorExpr)
						writeOnly[sel.Sel] = true
						chain(sel.X, true)
						continue
					}
					chain(lhs, true)
				}
			case *ast.IncDecStmt:
				chain(n.X, true)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							chain(e, true)
						}
					}
				}
			case *ast.CallExpr:
				if fn := callee(p.info, n.Fun); fn != nil && fn.Pkg() != nil && reflective[fn.Pkg().Path()] {
					for _, arg := range n.Args {
						readAll(p.info.TypeOf(arg), read, map[types.Type]bool{})
					}
				}
			case *ast.UnaryExpr:
				// &x.F hands out a pointer the callee may write and read.
				if n.Op == token.AND {
					chain(n.X, false)
				}
			case *ast.SelectorExpr:
				// x.F.M() with a pointer receiver takes &x.F implicitly.
				if s := p.info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					_, ptrRecv := s.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer)
					_, viaPtr := s.Recv().Underlying().(*types.Pointer)
					if ptrRecv && !viaPtr {
						chain(n.X, false)
					}
				}
			case *ast.CompositeLit:
				t := p.info.TypeOf(n)
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							written[origin(p.info.Uses[key])] = true
							writeOnly[key] = true
						}
					} else {
						written[origin(st.Field(i))] = true
					}
				}
			}
			return true
		})
	}
	return writeOnly, recvs
}

// reflective lists the packages whose functions read every field of a
// value they are handed.
var reflective = map[string]bool{"encoding/json": true, "html/template": true, "text/template": true}

// callee is the function or method a call expression names, if any.
func callee(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// readAll marks as read every field reachable from a value of type t.
func readAll(t types.Type, read map[types.Object]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		readAll(u.Elem(), read, seen)
	case *types.Slice:
		readAll(u.Elem(), read, seen)
	case *types.Array:
		readAll(u.Elem(), read, seen)
	case *types.Map:
		readAll(u.Elem(), read, seen)
	case *types.Struct:
		for i := range u.NumFields() {
			read[origin(u.Field(i))] = true
			readAll(u.Field(i).Type(), read, seen)
		}
	}
}

// interfaces indexes by method name every interface the module's
// packages and their imports declare or write as a literal, error, and
// the interfaces the errors package asserts.
func (m *module) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	// errors.Is, As and Unwrap assert these inline, so no package
	// scope declares them.
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(m.fset, nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// implements reports whether method fn satisfies a method of some
// interface its receiver type implements: such a method is called
// through the interface (fmt calls String and Error).
func implements(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Signature().Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

func (m *module) position(pos token.Pos) string {
	p := m.fset.Position(pos)
	rel, _ := filepath.Rel(m.root, p.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// typeName is the declared type behind t, through a pointer and aliases.
func typeName(t types.Type) *types.TypeName {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

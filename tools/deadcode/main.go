// Command deadcode fails when a production function or method is
// reached only from tests, or from nothing at all.
//
// Run it from the repository root (make deadcode). It lists the packages
// of the main module and of benchmark/, with everything they import,
// once for amd64 and once for 386, and reports a function or method only
// if it is dead under both, so one called only from a `!amd64` file stays
// live. Every package-level function and every method declared outside a
// _test.go file is judged; it is live when it is reached, transitively,
// from one of these roots:
//
//   - main and init;
//   - every package-level var, const and type declaration;
//   - the exported functions of a module's root package, and the
//     exported methods of its exported types: the library's public
//     surface;
//   - every Benchmark function in a _test.go file: they are the paper's
//     tables and ablations;
//   - every method a type lends to an interface: one the type
//     implements and that has the method, declared anywhere in the
//     production code of the module or of a package it imports, the
//     standard library included, for code that calls it without naming
//     it (fmt calls String, errors.Is calls Unwrap, sort.Sort calls Len).
//
// A function is reached by any identifier or package-qualified selector
// that names it, a method by any selector of its name (x.Name, T.Name),
// whatever x is; only the bodies of reached functions and methods are
// walked. Both can count a reference that is not one (a local variable
// or a field of the same name), so the gate can miss dead code but never
// reports live code, short of a method called by name through reflect
// (as text/template calls methods), which no package here does. Each
// finding prints as "file:line: pkg.Name is reached only from tests" (or
// "is unreachable"; a method as pkg.T.M or pkg.(*T).M) and makes the
// command exit 1, unless the allow-list below covers it; an allow-list
// entry that covers no dead function fails too.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allow maps "importpath.Name", or a whole import path, to the reason
// the code it names may stay although no production root reaches it. An
// entry that names a type covers its methods and its constructor NewType
// too.
var allow = map[string]string{
	"deepfusion/internal/campaign.DiskFaults":    "test support: the fault filesystem the durability tests inject",
	"deepfusion/internal/campaign.SetDiskFaults": "test support: installs the fault filesystem on a campaign",
	"deepfusion/internal/campaign.FakeClock":     "test support: the manual clock every time-dependent test runs on",
	"deepfusion/internal/campaign/dispatchtest":  "test support: the dispatch conformance suite and tiny campaign fixtures",
	"deepfusion/internal/nn.FormBuilds":          "one-off counter the frozen-form tests read, until in-program recording replaces it",
	"deepfusion/internal/nn.GlorotInits":         "one-off counter the initialisation tests read, until in-program recording replaces it",
	"deepfusion/internal/fusion.ResponseBuilds":  "one-off counter the response-cache tests read, until in-program recording replaces it",
	"deepfusion/internal/nn.LoadParams":          "reader half of the checkpoint format cmd/train -checkpoint writes",
	"deepfusion/internal/tensor.MatMulAccPacked": "the f64 golden pins its bits (fusion.TestF64BitsGolden's goldenAccPacked)",
}

func main() {
	os.Exit(run([]string{".", "benchmark"}, allow, os.Stdout))
}

// pkg is the part of `go list -json` output the gate reads.
type pkg struct {
	Dir, ImportPath, Name              string
	GoFiles, TestGoFiles, XTestGoFiles []string
	ImportMap                          map[string]string
	Standard                           bool
	Module                             struct{ Path string }
}

// key names a function ("F"), a method ("T.M") or, as a reference only,
// a selector (".M"; its package is empty for an exported name, which any
// package may select).
type key struct{ pkg, name string }

// fn is one package-level function or method; every init of a package
// merges into one.
type fn struct {
	file string
	line int
	name string // as reported: pkg.F, pkg.T.M or pkg.(*T).M
	test bool   // declared in a _test.go file
	refs []key  // the names its body uses
	text string // the finding, once judged dead
}

// run judges the modules in dirs, prints one line per finding to w and
// returns the exit status.
func run(dirs []string, allow map[string]string, w io.Writer) int {
	arches := []string{"amd64", "386"}
	graphs := make([]*graph, len(arches))
	errs := make([]error, len(arches))
	done := make(chan int)
	for i, arch := range arches {
		go func() {
			graphs[i], errs[i] = load(dirs, arch)
			done <- i
		}()
	}
	for range arches {
		<-done
	}
	judged := map[key]*fn{}
	live := map[key]bool{}   // reached under some GOARCH
	tested := map[key]bool{} // reached from tests under some GOARCH
	for i, g := range graphs {
		if errs[i] != nil {
			fmt.Fprintln(w, errs[i])
			return 2
		}
		reached, fromTests := g.walk(g.roots), g.walk(g.testRoots)
		for k, f := range g.fns {
			if f.test || k.name == "init" || k.name == "_" {
				continue
			}
			judged[k] = f
			live[k] = live[k] || reached[k]
			tested[k] = tested[k] || fromTests[k]
		}
	}
	var found []*fn
	used := map[string]bool{}
	for k, f := range judged {
		if live[k] {
			continue
		}
		if entries := covering(k, allow); len(entries) > 0 {
			for _, e := range entries {
				used[e] = true
			}
			continue
		}
		what := "is unreachable"
		if tested[k] {
			what = "is reached only from tests"
		}
		f.text = fmt.Sprintf("%s:%d: %s %s", f.file, f.line, f.name, what)
		found = append(found, f)
	}
	sort.Slice(found, func(i, j int) bool {
		x, y := found[i], found[j]
		return x.file < y.file || x.file == y.file && x.line < y.line
	})
	var stale []string
	for entry := range allow {
		if !used[entry] {
			stale = append(stale, "allow-list entry "+entry+" names no dead function")
		}
	}
	sort.Strings(stale)
	for _, f := range found {
		fmt.Fprintln(w, f.text)
	}
	for _, l := range stale {
		fmt.Fprintln(w, l)
	}
	if len(found)+len(stale) > 0 {
		return 1
	}
	return 0
}

// covering returns the allow-list entries that cover k: its package,
// its own name, and for a method its type, for a constructor NewT the
// type T.
func covering(k key, allow map[string]string) []string {
	names := []string{k.pkg, k.pkg + "." + k.name}
	if t, _, ok := strings.Cut(k.name, "."); ok {
		names = append(names, k.pkg+"."+t)
	} else if t, ok := strings.CutPrefix(k.name, "New"); ok {
		names = append(names, k.pkg+"."+t)
	}
	var out []string
	for _, n := range names {
		if allow[n] != "" {
			out = append(out, n)
		}
	}
	return out
}

// graph is the reference graph of one GOARCH's build.
type graph struct {
	fset    *token.FileSet
	names   map[string]string // import path → package name
	fns     map[key]*fn
	methods map[key][]key // selector → the methods of that name
	// roots and testRoots seed the two walks; testRoots holds every
	// production root and everything declared in a _test.go file.
	roots, testRoots []key
}

// load lists, parses and type-checks the packages of the modules in dirs
// for one GOARCH.
func load(dirs []string, arch string) (*graph, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	g := &graph{fset: token.NewFileSet(), names: map[string]string{}, fns: map[key]*fn{}, methods: map[key][]key{}}
	listed := map[string]pkg{}
	var mods []pkg // the modules' own packages, each once
	for _, dir := range dirs {
		// Without cgo every package of the standard library type-checks
		// from its Go files alone.
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s (GOARCH=%s): %w", dir, arch, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p pkg
			if err := dec.Decode(&p); err != nil {
				return nil, fmt.Errorf("go list in %s: %w", dir, err)
			}
			if _, ok := listed[p.ImportPath]; ok {
				continue
			}
			listed[p.ImportPath] = p
			g.names[p.ImportPath] = p.Name
			if !p.Standard {
				mods = append(mods, p)
			}
		}
	}
	c := &checker{fset: g.fset, arch: arch, listed: listed, files: map[string][]*ast.File{}, done: map[string]*types.Package{}, ifaces: map[*types.Interface]bool{}}
	for _, p := range mods {
		dir, err := filepath.Rel(cwd, p.Dir) // report paths as the caller sees them
		if err != nil {
			dir = p.Dir
		}
		for _, files := range [][]string{p.GoFiles, p.TestGoFiles, p.XTestGoFiles} {
			for _, name := range files {
				path := filepath.Join(dir, name)
				f, err := parser.ParseFile(g.fset, path, nil, 0)
				if err != nil {
					return nil, err
				}
				g.addFile(p, path, f)
				if !strings.HasSuffix(name, "_test.go") {
					c.files[p.ImportPath] = append(c.files[p.ImportPath], f)
				}
			}
		}
	}
	for _, p := range mods {
		if _, err := c.check(p.ImportPath); err != nil {
			return nil, err
		}
	}
	lent := c.lent()
	g.roots = append(g.roots, lent...)
	g.testRoots = append(g.testRoots, lent...)
	return g, nil
}

// addFile records the functions and methods one file declares and the
// roots it holds.
func (g *graph) addFile(p pkg, path string, f *ast.File) {
	test := strings.HasSuffix(path, "_test.go")
	s := scope{self: p.ImportPath, imports: map[string]string{}}
	if f.Name.Name != p.Name { // an external test package
		s.self += "_test"
	}
	for _, spec := range f.Imports {
		ip, _ := strconv.Unquote(spec.Path.Value)
		name, ok := g.names[ip]
		if !ok {
			continue // imported by tests only
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		s.imports[name] = ip
	}
	root := func(r []key, live bool) {
		g.testRoots = append(g.testRoots, r...)
		if live {
			g.roots = append(g.roots, r...)
		}
	}
	short := p.ImportPath[strings.LastIndex(p.ImportPath, "/")+1:]
	rootPkg := p.ImportPath == p.Module.Path && p.Name != "main"
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			root(s.refs(d, nil), !test)
			continue
		}
		var refs []key
		if fd.Body != nil { // not an assembly function
			refs = s.refs(fd.Body, nil)
		}
		name, shown := fd.Name.Name, short+"."+fd.Name.Name
		exported := ast.IsExported(name)
		if fd.Recv != nil {
			t, ptr := receiver(fd.Recv.List[0].Type)
			name = t + "." + name
			if shown = short + "." + name; ptr {
				shown = short + ".(*" + t + ")." + fd.Name.Name
			}
			exported = exported && ast.IsExported(t)
			sel := s.selector(fd.Name.Name)
			g.methods[sel] = append(g.methods[sel], key{s.self, name})
		}
		k := key{s.self, name}
		if g.fns[k] == nil {
			g.fns[k] = &fn{file: path, line: g.fset.Position(fd.Pos()).Line, name: shown, test: test}
		}
		g.fns[k].refs = append(g.fns[k].refs, refs...)
		switch {
		case test:
			root([]key{k}, fd.Recv == nil && strings.HasPrefix(name, "Benchmark"))
		case fd.Recv == nil && (name == "init" || name == "main" && p.Name == "main"),
			rootPkg && exported:
			root([]key{k}, true)
		}
	}
}

// receiver returns the name of a method's receiver type and whether the
// receiver is a pointer.
func receiver(e ast.Expr) (string, bool) {
	star, ptr := e.(*ast.StarExpr)
	if ptr {
		e = star.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr: // a generic type
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name, ptr
}

// scope resolves the names one file uses.
type scope struct {
	self    string            // the package unqualified names belong to
	imports map[string]string // local name → import path
}

// selector is the key of a selector of name in this scope.
func (s scope) selector(name string) key {
	if ast.IsExported(name) {
		return key{"", "." + name}
	}
	return key{s.self, "." + name}
}

// refs appends to out every function key and selector n names.
func (s scope) refs(n ast.Node, out []key) []key {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// x names an import unless a declaration in the file shadows
			// it (the parser resolves only the file's own declarations).
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && s.imports[x.Name] != "" {
				out = append(out, key{s.imports[x.Name], n.Sel.Name})
			} else {
				out = append(s.refs(n.X, out), s.selector(n.Sel.Name))
			}
			return false
		case *ast.Ident:
			out = append(out, key{s.self, n.Name})
		}
		return true
	})
	return out
}

// walk returns every function, method and selector reached from roots.
func (g *graph) walk(roots []key) map[key]bool {
	seen := map[key]bool{}
	stack := append([]key{}, roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		if f := g.fns[k]; f != nil {
			stack = append(stack, f.refs...)
		}
		stack = append(stack, g.methods[k]...)
	}
	return seen
}

// checker type-checks the production files of every listed package, the
// standard library's with the rest, and collects the interface types
// they use.
type checker struct {
	fset   *token.FileSet
	arch   string
	listed map[string]pkg
	files  map[string][]*ast.File // the modules' parsed production files
	done   map[string]*types.Package
	ifaces map[*types.Interface]bool // every interface with a method
	named  []*types.Named            // every type the modules declare
}

// check type-checks the package at path, after the packages it imports.
func (c *checker) check(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp := c.done[path]; tp != nil {
		return tp, nil
	}
	p := c.listed[path]
	files, mod := c.files[path], !p.Standard
	if !mod {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	conf := types.Config{
		Importer: importer(func(ip string) (*types.Package, error) {
			if m := p.ImportMap[ip]; m != "" {
				ip = m
			}
			return c.check(ip)
		}),
		Sizes: types.SizesFor("gc", c.arch),
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}}
	tp, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s (GOARCH=%s): %w", path, c.arch, err)
	}
	c.done[path] = tp
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			c.ifaces[it] = true
		}
	}
	if mod {
		for _, obj := range info.Defs {
			if t, ok := obj.(*types.TypeName); ok && !t.IsAlias() {
				if n, ok := t.Type().(*types.Named); ok { // not a type parameter
					c.named = append(c.named, n)
				}
			}
		}
	}
	return tp, nil
}

type importer func(path string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// lent returns the keys of the modules' methods that a type lends to an
// interface it implements: each method of the interface, wherever the
// type's method set finds it (declared on the type, or promoted from a
// type it embeds). A generic type implements an interface when it has a
// method of each of its names.
func (c *checker) lent() []key {
	byFirst := map[string][]*types.Interface{} // by the Id of the first method
	for it := range c.ifaces {
		byFirst[it.Method(0).Id()] = append(byFirst[it.Method(0).Id()], it)
	}
	var out []key
	for _, n := range c.named {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := range ms.Len() {
			for _, it := range byFirst[ms.At(i).Obj().Id()] {
				if n.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
					continue
				}
				var sels []*types.Selection
				for m := range it.Methods() {
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						sels = append(sels, sel)
					}
				}
				if len(sels) < it.NumMethods() {
					continue
				}
				for _, sel := range sels {
					f := sel.Obj().(*types.Func)
					recv := f.Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if named, ok := recv.(*types.Named); ok && f.Pkg() != nil {
						out = append(out, key{f.Pkg().Path(), named.Obj().Name() + "." + f.Name()})
					}
				}
			}
		}
	}
	return out
}

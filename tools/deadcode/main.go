// Command deadcode fails when a package-level production function is
// reached only from tests, or from nothing at all.
//
// Run it from the repository root (make deadcode). It lists the packages
// of the main module and of benchmark/ with `go list`, once for amd64 and
// once for 386, and reports a function only if it is dead under both, so
// a function called only from a `!amd64` file stays live. Every
// package-level function declared outside a _test.go file is judged; it
// is live when it is reached, transitively, from one of these roots:
//
//   - main and init;
//   - every method body (methods themselves are not judged);
//   - every package-level var, const and type declaration;
//   - the exported functions of a module's root package, the library's
//     public surface;
//   - every Benchmark function in a _test.go file: they are the paper's
//     tables and ablations.
//
// A reference is any identifier or package-qualified selector that names
// the function. That can count a reference that is not one (a local
// variable of the same name), so the gate can miss dead code but never
// reports live code. Each finding prints as "file:line: pkg.Name is
// reached only from tests" (or "is unreachable") and makes the command
// exit 1, unless the allow-list below names it; an allow-list entry that
// matches no dead function fails too.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allow maps "importpath.Name", or a whole import path, to the reason
// the function may stay although no production root reaches it.
var allow = map[string]string{
	"deepfusion/internal/campaign.NewDiskFaults": "test support: the fault filesystem the durability tests inject",
	"deepfusion/internal/campaign.SetDiskFaults": "test support: installs the fault filesystem on a campaign",
	"deepfusion/internal/campaign.NewFakeClock":  "test support: the manual clock every time-dependent test runs on",
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
	Module                             struct{ Path string }
}

type key struct{ pkg, name string }

// fn is one package-level function; every init of a package merges into
// one.
type fn struct {
	file string
	line int
	test bool   // declared in a _test.go file
	refs []key  // the names its body uses
	text string // the finding, once judged dead
}

// run judges the modules in dirs, prints one line per finding to w and
// returns the exit status.
func run(dirs []string, allow map[string]string, w io.Writer) int {
	judged := map[key]*fn{}
	live := map[key]bool{}   // reached under some GOARCH
	tested := map[key]bool{} // reached from tests under some GOARCH
	for _, arch := range []string{"amd64", "386"} {
		g, err := load(dirs, arch)
		if err != nil {
			fmt.Fprintln(w, err)
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
		if entry := k.pkg + "." + k.name; allow[entry] != "" || allow[k.pkg] != "" {
			used[entry], used[k.pkg] = true, true
			continue
		}
		what := "is unreachable"
		if tested[k] {
			what = "is reached only from tests"
		}
		f.text = fmt.Sprintf("%s:%d: %s.%s %s", f.file, f.line, k.pkg[strings.LastIndex(k.pkg, "/")+1:], k.name, what)
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

// graph is the reference graph of one GOARCH's build.
type graph struct {
	fset  *token.FileSet
	names map[string]string // import path → package name
	fns   map[key]*fn
	// roots and testRoots seed the two walks; testRoots holds every
	// production root and everything declared in a _test.go file.
	roots, testRoots []key
}

// load lists and parses the packages of the modules in dirs for one
// GOARCH.
func load(dirs []string, arch string) (*graph, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	g := &graph{fset: token.NewFileSet(), names: map[string]string{}, fns: map[key]*fn{}}
	var pkgs []pkg
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOARCH="+arch)
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
			pkgs = append(pkgs, p)
			g.names[p.ImportPath] = p.Name
		}
	}
	for _, p := range pkgs {
		dir, err := filepath.Rel(cwd, p.Dir) // report paths as the caller sees them
		if err != nil {
			dir = p.Dir
		}
		for _, files := range [][]string{p.GoFiles, p.TestGoFiles, p.XTestGoFiles} {
			for _, name := range files {
				path := filepath.Join(dir, name)
				f, err := parser.ParseFile(g.fset, path, nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				g.addFile(p, path, f)
			}
		}
	}
	return g, nil
}

// addFile records the functions one file declares and the roots it holds.
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
			continue // outside the modules judged
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
		name := fd.Name.Name
		if fd.Recv != nil {
			root(refs, !test)
			continue
		}
		k := key{s.self, name}
		if g.fns[k] == nil {
			g.fns[k] = &fn{file: path, line: g.fset.Position(fd.Pos()).Line, test: test}
		}
		g.fns[k].refs = append(g.fns[k].refs, refs...)
		switch {
		case test:
			root([]key{k}, strings.HasPrefix(name, "Benchmark"))
		case name == "init" || name == "main" && p.Name == "main",
			p.ImportPath == p.Module.Path && p.Name != "main" && ast.IsExported(name):
			root([]key{k}, true)
		}
	}
}

// scope resolves the names one file uses.
type scope struct {
	self    string            // the package unqualified names belong to
	imports map[string]string // local name → import path
}

// refs appends to out every function key n names.
func (s scope) refs(n ast.Node, out []key) []key {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && s.imports[x.Name] != "" {
				out = append(out, key{s.imports[x.Name], n.Sel.Name})
			} else {
				out = s.refs(n.X, out) // n.Sel is a field or method
			}
			return false
		case *ast.Ident:
			out = append(out, key{s.self, n.Name})
		}
		return true
	})
	return out
}

// walk returns every function reached from roots.
func (g *graph) walk(roots []key) map[key]bool {
	seen := map[key]bool{}
	stack := append([]key{}, roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f := g.fns[k]; f != nil && !seen[k] {
			seen[k] = true
			stack = append(stack, f.refs...)
		}
	}
	return seen
}

package nsr

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the production functions that no production path
// reaches but that stay in non-test files, each with the reason it stays.
// Keys are written as the walk reports them: the package path relative to
// the module, then the receiver's type name for a method, then the name.
var surfaceAllowlist = map[string]string{
	// The paper's printed approximations. The closedform tests check them
	// against the exact recursions, and the model tests check them against
	// the chains; a test-only copy could serve only one of the two.
	"internal/closedform.NIRMTTDL1":        "printed Eq. k=1 form, tested in closedform and model",
	"internal/closedform.NIRMTTDL2":        "printed Eq. k=2 form, tested in closedform and model",
	"internal/closedform.NIRMTTDL3":        "printed Eq. k=3 form, tested in closedform and model",
	"internal/closedform.RAID5MTTDL":       "printed RAID 5 array form, tested in closedform and model",
	"internal/closedform.RAID5MTTDLExact":  "printed exact RAID 5 array form, tested in closedform and model",
	"internal/closedform.RAID6MTTDL":       "printed RAID 6 array form, tested in closedform and model",
	"internal/closedform.IRMTTDLExactNFT1": "printed exact internal-RAID ft 1 form, tested in closedform and model",
	// The Figure 1 and Figure 4 array chains: model's tests check them
	// against the printed forms, sim's array DES tests against them.
	"internal/model.RAID5Chain": "array chain oracle for tests in model and sim",
	"internal/model.RAID6Chain": "array chain oracle for tests in model and sim",
	// Test knobs that tests in several packages set.
	"internal/markov.SetSparseMinStates":   "forces the dense or sparse route in tests of markov, core and the root package; goes when one solver route is left",
	"internal/markov.Chain.AddRate":        "AddEdge that drops zero rates, used by tests of markov, sim, core and the root package",
	"internal/linalg/sparse.Program.Stats": "lane program operation counts, pinned by markov's program tests",
}

// TestProductionSurfaceReached fails when a function or method in the
// module's non-test files is reached by no production path. The roots are
// every package main (under cmd/ and examples/), perfbench's non-test
// files, this facade's exported declarations and the exported methods of
// the types it aliases, every init function and package-level
// initializer, and any method whose name matches an interface method,
// since an interface call or a dynamic one (fmt, encoding/json, net/http)
// may reach it. Code that only tests use belongs in a _test.go file, and
// code nothing uses belongs nowhere.
func TestProductionSurfaceReached(t *testing.T) {
	rep, err := walkSurface(surfaceConfig{dir: ".", module: "repro", rootDir: "perfbench", rootModule: "repro/perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	found := map[string]bool{}
	for _, f := range rep.unreached {
		lines += f.lines
		found[f.name] = true
		if _, ok := surfaceAllowlist[f.name]; !ok {
			t.Errorf("%s (%s, %d lines) is reached by no production path: "+
				"move it into a _test.go file if tests need it, else delete it", f.name, f.pos, f.lines)
		}
	}
	for name := range surfaceAllowlist {
		if !found[name] {
			t.Errorf("allowlist entry %s is reached or gone: drop the entry", name)
		}
	}
	t.Logf("%d functions, %d unreached (%d lines)", rep.funcs, len(rep.unreached), lines)
}

// TestSurfaceWalkFixture runs the walk over testdata/surface, a module with
// one exported function nothing calls, one method reached only through an
// interface call, one function reached only from a benchmark-like root
// module and one method of a type the facade aliases. Only the first is
// unreached.
func TestSurfaceWalkFixture(t *testing.T) {
	rep, err := walkSurface(surfaceConfig{dir: filepath.Join("testdata", "surface"), module: "fixture", rootDir: "bench", rootModule: "fixture/bench"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.unreached {
		got = append(got, f.name)
	}
	if len(got) != 1 || got[0] != "lib.Unreached" {
		t.Fatalf("unreached = %v, want [lib.Unreached]", got)
	}
}

// surfaceConfig locates a module, whose root package is its facade, and
// a root module under it that requires it (perfbench).
type surfaceConfig struct {
	dir, module         string // the module's directory and import path
	rootDir, rootModule string // the root module's directory under dir and import path
}

type surfaceFunc struct {
	name, pos string
	lines     int // with the doc comment
}

type surfaceReport struct {
	funcs     int // functions and methods declared in the module
	unreached []surfaceFunc
}

// surfacePkg is one type-checked package of non-test files.
type surfacePkg struct {
	path  string
	root  bool // of the root module: every function is a root
	files []*ast.File
	info  *types.Info
}

// surfaceLoader type-checks the module's and the root module's packages
// from source and imports the standard library from export data.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	roots map[string]bool   // import paths of the root module
	pkgs  map[string]*types.Package
	order []*surfacePkg // dependencies first
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	p := &surfacePkg{path: path, root: l.roots[path], info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.order = append(l.order, p)
	return pkg, nil
}

// walkSurface type-checks every package of the module and of the root
// module and reports the module's functions that no root reaches.
func walkSurface(cfg surfaceConfig) (*surfaceReport, error) {
	l := &surfaceLoader{fset: token.NewFileSet(), std: importer.Default(),
		dirs: map[string]string{}, roots: map[string]bool{}, pkgs: map[string]*types.Package{}}
	err := filepath.WalkDir(cfg.dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != cfg.dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(cfg.dir, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		path := strings.TrimSuffix(cfg.module+"/"+rel, "/.")
		if rel == cfg.rootDir || strings.HasPrefix(rel, cfg.rootDir+"/") {
			path = cfg.rootModule + strings.TrimPrefix(rel, cfg.rootDir)
			l.roots[path] = true
		}
		l.dirs[path] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for path, dir := range l.dirs {
		if names, _ := filepath.Glob(filepath.Join(dir, "*.go")); slices.ContainsFunc(names, func(n string) bool { return !strings.HasSuffix(n, "_test.go") }) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	// Method names of every interface in the module and in what it
	// imports, from the standard library's export data.
	ifaces := map[string]bool{"Error": true}
	seen := map[*types.Package]bool{}
	var addIfaces func(pkg *types.Package)
	addIfaces = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range pkg.Imports() {
			addIfaces(imp)
		}
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	declPkg := map[*types.Func]*surfacePkg{}
	for _, p := range l.order {
		addIfaces(l.pkgs[p.path])
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[n.Name].(*types.Func)
					decls[fn], declPkg[fn] = n, p
				case *ast.InterfaceType: // local and literal interfaces
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							ifaces[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	reached := map[*types.Func]bool{}
	var work []*types.Func
	mark := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			work = append(work, fn)
		}
	}
	visit := func(n ast.Node, p *surfacePkg) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}
	for fn, d := range decls {
		p := declPkg[fn]
		if p.root || d.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main") ||
			d.Recv != nil && ifaces[fn.Name()] || p.path == cfg.module && fn.Exported() {
			mark(fn)
		}
	}
	for _, p := range l.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				switch {
				case !ok:
				case gd.Tok == token.VAR:
					visit(gd, p) // package-level initializers
				case gd.Tok == token.TYPE && p.path == cfg.module:
					for _, s := range gd.Specs {
						// The facade's aliases export their types' methods.
						ts := s.(*ast.TypeSpec)
						named, ok := p.info.Defs[ts.Name].Type().(*types.Named)
						if !ts.Assign.IsValid() || !ts.Name.IsExported() || !ok {
							continue
						}
						for i := 0; i < named.NumMethods(); i++ {
							if m := named.Method(i); m.Exported() {
								mark(m)
							}
						}
					}
				}
			}
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if d, ok := decls[fn]; ok && d.Body != nil {
			visit(d.Body, declPkg[fn])
		}
	}

	rep := &surfaceReport{}
	for fn, d := range decls {
		p := declPkg[fn]
		if p.root {
			continue
		}
		rep.funcs++
		if reached[fn] {
			continue
		}
		start := d.Pos()
		if d.Doc != nil {
			start = d.Doc.Pos()
		}
		at := l.fset.Position(d.Pos())
		rel, _ := filepath.Rel(cfg.dir, at.Filename)
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			name = t.(*types.Named).Obj().Name() + "." + name
		}
		if pkg := strings.TrimPrefix(strings.TrimPrefix(p.path, cfg.module), "/"); pkg != "" {
			name = pkg + "." + name
		}
		rep.unreached = append(rep.unreached, surfaceFunc{
			name:  name,
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), at.Line),
			lines: l.fset.Position(d.End()).Line - l.fset.Position(start).Line + 1,
		})
	}
	sort.Slice(rep.unreached, func(i, j int) bool { return rep.unreached[i].name < rep.unreached[j].name })
	return rep, nil
}

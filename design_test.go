package mbrim_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	_ "mbrim/internal/cluster" // registers the cluster engine
	"mbrim/internal/core"
)

// TestDesignInventoryNamesEveryPackage: DESIGN.md §3's package table
// names exactly the directories under internal/ that hold non-test Go,
// so a package added, moved or deleted without its row fails here.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 3.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	named := map[string]bool{}
	pkg := regexp.MustCompile("`(internal/[a-z0-9/]+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		for _, m := range pkg.FindAllStringSubmatch(cells[2], -1) {
			named[m[1]] = true
		}
	}
	if len(named) == 0 {
		t.Fatal("§3's table names no internal package")
	}

	present := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			present[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, miss := range difference(present, named) {
		t.Errorf("%s holds Go code but has no row in DESIGN.md §3", miss)
	}
	for _, gone := range difference(named, present) {
		t.Errorf("DESIGN.md §3 names %s, which holds no Go code", gone)
	}
}

// difference lists the keys of a that b lacks, sorted.
func difference(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestFacadeExportsHaveCallers: every name the facade exports has a
// caller. A const, var or func is named as mbrim.X by a program under
// examples/ or cmd/ or by a root Example. A type is named so too, or
// appears in the signature of a kept function or method, or as a field
// of a kept struct. The engine Kind constants stay as one set, which
// must be exactly the registered engines.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]bool{}
	collect := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "mbrim" {
					named[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	m := loadModule(t)
	for _, f := range m.xtest.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				collect(fd)
			}
		}
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err == nil {
				collect(f)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	scope := m.pkgs["mbrim"].types.Scope()
	aliasOf := map[*types.TypeName][]string{} // facade type names by the type they alias
	kept := map[string]bool{}
	kinds := map[string]bool{}
	var roots []string
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.TypeName:
			if nt, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				aliasOf[nt.Obj()] = append(aliasOf[nt.Obj()], name)
			}
		case *types.Const:
			if types.TypeString(obj.Type(), nil) == "mbrim/internal/core.Kind" {
				kinds[constant.StringVal(obj.Val())] = true
				kept[name] = true
			}
		}
		if named[name] {
			kept[name] = true
			roots = append(roots, name)
		}
	}

	// Mark the facade types the roots reach through signatures, methods
	// and fields. A type the facade does not alias is a dead end: no
	// caller can name it, so it keeps nothing.
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		typ = types.Unalias(typ)
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			for _, name := range aliasOf[typ.Obj()] {
				kept[name] = true
			}
			if len(aliasOf[typ.Obj()]) == 0 {
				return
			}
			for i := range typ.NumMethods() {
				if m := typ.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
			walk(typ.Underlying())
		case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
			if m, ok := typ.(*types.Map); ok {
				walk(m.Key())
			}
			walk(typ.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := range tuple.Len() {
					walk(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := range typ.NumFields() {
				if f := typ.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := range typ.NumMethods() {
				if m := typ.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	for _, name := range roots {
		walk(scope.Lookup(name).Type())
	}

	for _, name := range scope.Names() {
		if token.IsExported(name) && !kept[name] {
			t.Errorf("mbrim.%s has no caller: name it in an example, a command or an Example, or delete it", name)
		}
	}
	want := map[string]bool{}
	for _, k := range core.Kinds() {
		want[k] = true
	}
	for _, k := range difference(want, kinds) {
		t.Errorf("engine %q has no Kind constant in the facade", k)
	}
	for _, k := range difference(kinds, want) {
		t.Errorf("the facade's Kind constant %q names no registered engine", k)
	}
}

// module is every package of the module type-checked from source in
// the default build: non-test files only, plus the root's external
// test package for its Examples.
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*modPkg // by import path
	xtest *modPkg            // package mbrim_test
}

// modPkg is one type-checked package.
type modPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

var (
	loadOnce   sync.Once
	loaded     *module
	loadFailed error
)

// loadModule type-checks the module once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = checkModule() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

// checkModule type-checks every directory that holds Go code, importing
// the standard library from source.
func checkModule() (*module, error) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	std := importer.ForCompiler(m.fset, "source", nil)
	dirs := map[string]string{} // import path → directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if ms, _ := filepath.Glob(filepath.Join(path, "*.go")); len(ms) > 0 {
			dirs[strings.TrimSuffix("mbrim/"+filepath.ToSlash(path), "/.")] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var imp importerFunc
	check := func(path, dir string, names []string) (*modPkg, error) {
		p := &modPkg{info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		var err error
		p.types, err = (&types.Config{Importer: imp}).Check(path, m.fset, p.files, p.info)
		return p, err
	}
	imp = func(path string) (*types.Package, error) {
		dir, ok := dirs[path]
		if !ok {
			return std.Import(path)
		}
		if p := m.pkgs[path]; p != nil {
			return p.types, nil
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p, err := check(path, dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		m.pkgs[path] = p
		return p.types, nil
	}
	for path := range dirs {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	bp, err := build.Default.ImportDir(".", 0)
	if err != nil {
		return nil, err
	}
	m.xtest, err = check("mbrim_test", ".", bp.XTestGoFiles)
	return m, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachAllowed names the internal declarations that no program reaches
// but a test needs: a reference the test compares against, a checker
// of an invariant, or a seam into code a program runs. Each entry names
// a test, as package.Test under internal/, that calls it, directly or
// through the test's helpers and the other entries.
var reachAllowed = map[string]struct{ test, why string }{
	"sa.SolveNaive":     {"sa.TestSolveMatchesExpLoop", "the full-recompute annealer the fast one is held to"},
	"lattice.Tanh":      {"lattice.FuzzTanh", "the seam on tanh_amd64.h, whose TANH_PAIR macro latchStage expands"},
	"lattice.tanhLanes": {"lattice.FuzzTanh", "the packed twin Tanh dispatches to, held to tanhGo bit for bit"},
	"exact.Verify":      {"exact.TestVerify", "the local-optimality oracle the solvers' results are checked by"},

	"ising.FromIsing":         {"ising.TestIsingToQUBOValueIdentity", "the inverse of QUBO.ToIsing, the oracle for its energy identity"},
	"ising.QUBO.Value":        {"ising.TestQUBOToIsingValueIdentity", "the QUBO objective the Ising energy is compared against"},
	"ising.WriteQUBO":         {"ising.TestQUBOFileRoundTrip", "the writer ReadQUBO round-trips against"},
	"ising.CrossEnergy":       {"ising.TestEq3EnergyIdentity", "E_× of Eq 3, the identity the chip split must satisfy"},
	"ising.Complement":        {"ising.TestEq3EnergyIdentity", "the other side of a bipartition for Eq 3"},
	"ising.HammingDistance":   {"sa.TestSolveDeterministic", "compares two runs' spins"},
	"ising.ValidSpins":        {"multichip.TestSystemInvariantsProperty", "checks every spin is ±1"},
	"ising.Model.Coupling":    {"ising.TestSetCouplingSymmetric", "reads one stored coupling back, whatever the layout"},
	"ising.Model.NNZ":         {"ising.TestNewSparseDropsZeros", "counts the stored couplings, whatever the layout"},
	"brim.Machine.Model":      {"multichip.TestChipsInheritTheModelsLayout", "the only way to a chip's sub-model and its layout"},
	"obs.CheckGoroutineLeaks": {"runs.TestMain", "fails a package whose tests leave goroutines behind"},

	"embed.Chimera":                         {"embed.TestChimeraStructure", "the D-Wave topology whose capacity ChimeraCapacity reports"},
	"embed.Embedding.Chains":                {"embed.TestChainsPartitionPhysicalNodes", "checks the chains partition the physical nodes"},
	"embed.Embedding.Encode":                {"embed.TestEncodeDecodeRoundTrip", "the chain-intact state Decode is held to"},
	"embed.Embedding.ChainBreaks":           {"embed.TestChainBreaksDetected", "counts broken chains in a physical state"},
	"embed.Embedding.EnergyIdentityOffset":  {"embed.TestEnergyIdentityOnIntactChains", "the constant of the logical/physical energy identity"},
	"graph.Graph.Connected":                 {"embed.TestChimeraConnected", "checks the chimera graph is one component"},
	"graph.Graph.Components":                {"embed.TestChimeraConnected", "what Connected counts"},
	"problems.IndependentSet.IsIndependent": {"problems.TestIndependentSetDecodeRepairs", "checks a decoded set has no edge inside"},

	"multichip.Layout.Validate": {"multichip.TestPlanLayoutPaperExamples", "checks a planned layout's module counts"},
	"multichip.Stack.Validate":  {"multichip.TestPlanStackPaperExample", "checks a stack's diagonal and TSV lengths"},
	"multichip.Stack.ModeGrid":  {"multichip.TestStackModeGrid", "Fig 8's mode map, which Stack.Validate checks"},
}

// TestInternalCodeIsReached: every function, method, type, const and
// var under internal/ is reached from a program, or is on reachAllowed.
// The walk starts at every package main under cmd/, examples/ and
// bench/, every facade declaration, the root Examples, and the init
// functions and package-level var initializers of every linked package.
// It follows the objects each reached declaration uses (Info.Uses,
// which holds the selected field or method of every selector too); a
// call of an interface method reaches that method of every reached type
// that implements the interface, and a reached type keeps the methods
// the standard library calls by interface (error, Stringer,
// http.Handler, JSON), and so does a value passed as an interface.
func TestInternalCodeIsReached(t *testing.T) {
	m := loadModule(t)

	decl := map[types.Object]ast.Node{}
	home := map[types.Object]*modPkg{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					decl[obj], home[obj] = d, p
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							decl[obj], home[obj] = s, p
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if obj := p.info.Defs[id]; obj != nil {
									decl[obj], home[obj] = s, p
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var queue []types.Object
	var concrete []*types.Named // reached non-interface types, for the interface edges
	ifaceCalls := map[*types.Func]bool{}
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decl[obj]; !ok || reached[obj] {
			return
		}
		reached[obj] = true
		queue = append(queue, obj)
		if tn, ok := obj.(*types.TypeName); ok {
			if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) {
				concrete = append(concrete, nt)
			}
		}
	}
	walk := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				mark(info.Uses[id])
				return true
			}
			mark(fn)
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls[fn] = true
			}
			// A value passed as an interface has that interface's
			// methods called, in the module or not.
			params := fn.Signature().Params()
			for i := range params.Len() {
				if iface, ok := params.At(i).Type().Underlying().(*types.Interface); ok {
					for j := range iface.NumMethods() {
						ifaceCalls[iface.Method(j)] = true
					}
				}
			}
			return true
		})
	}
	// byName reaches the method called name of a reached type, declared
	// on it or promoted from an embedded field.
	byName := func(nt *types.Named, name string) {
		obj, _, _ := types.LookupFieldOrMethod(nt, true, nt.Obj().Pkg(), name)
		if obj != nil {
			mark(obj)
		}
	}

	// Roots.
	linked := map[*types.Package]bool{}
	var link func(*types.Package)
	link = func(p *types.Package) {
		if linked[p] {
			return
		}
		linked[p] = true
		for _, q := range p.Imports() {
			link(q)
		}
	}
	for path, p := range m.pkgs {
		rel := strings.TrimPrefix(path, "mbrim/")
		main := p.types.Name() == "main" && (strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") || strings.HasPrefix(rel, "bench"))
		if path == "mbrim" || main {
			link(p.types)
			for obj := range decl {
				if home[obj] == p {
					mark(obj)
				}
			}
		}
	}
	for _, f := range m.xtest.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				walk(fd, m.xtest.info)
			}
		}
	}
	for _, p := range m.pkgs {
		if !linked[p.types] {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						walk(d, p.info)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, spec := range d.Specs {
							for _, v := range spec.(*ast.ValueSpec).Values {
								walk(v, p.info)
							}
						}
					}
				}
			}
		}
	}

	// Edges, to a fixed point.
	for len(queue) > 0 {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			walk(decl[obj], home[obj].info)
			if nt, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				mark(nt.Obj())
			}
		}
		for _, nt := range concrete {
			for _, name := range []string{"Error", "Unwrap", "Is", "String", "ServeHTTP", "MarshalJSON", "UnmarshalJSON"} {
				byName(nt, name)
			}
			for fn := range ifaceCalls {
				iface := fn.Signature().Recv().Type().Underlying().(*types.Interface)
				if types.Implements(nt, iface) || types.Implements(types.NewPointer(nt), iface) {
					byName(nt, fn.Name())
				}
			}
		}
	}

	// The report.
	nameOf := func(obj types.Object) string {
		name := strings.TrimPrefix(obj.Pkg().Path(), "mbrim/internal/") + "."
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				name += rt.(*types.Named).Obj().Name() + "."
			}
		}
		return name + obj.Name()
	}
	declared := map[string]types.Object{}
	var dead []string
	for obj := range decl {
		if !strings.HasPrefix(obj.Pkg().Path(), "mbrim/internal/") || obj.Name() == "_" || obj.Name() == "init" {
			continue
		}
		name := nameOf(obj)
		declared[name] = obj
		entry, allowed := reachAllowed[name]
		switch {
		case reached[obj] && allowed:
			t.Errorf("%s is on reachAllowed (%s) but a program reaches it: take it off", name, entry.why)
		case !reached[obj] && !allowed:
			pos := m.fset.Position(obj.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no program: delete it, or allow it for the test that needs it", d)
	}
	if len(dead) > 0 {
		t.Logf("%d unreached declarations", len(dead))
	}

	// Each entry's test calls it: the test's body, followed through the
	// functions of its package's test files and the other entries' by
	// name, mentions the entry's name.
	if len(reachAllowed) > 30 {
		t.Errorf("reachAllowed has %d entries; at most 30", len(reachAllowed))
	}
	bodies := map[string][]ast.Node{} // an entry's bare name → its declarations
	for name := range reachAllowed {
		if obj := declared[name]; obj != nil {
			bodies[obj.Name()] = append(bodies[obj.Name()], decl[obj])
		}
	}
	testFuncs := map[string]map[string][]ast.Node{} // package → name → declarations
	for name, entry := range reachAllowed {
		if declared[name] == nil {
			t.Errorf("reachAllowed names %s, which is not declared", name)
			continue
		}
		dot := strings.LastIndex(entry.test, ".")
		dir, test := entry.test[:dot], entry.test[dot+1:]
		funcs, ok := testFuncs[dir]
		if !ok {
			funcs = map[string][]ast.Node{}
			files, _ := filepath.Glob(filepath.Join("internal", dir, "*_test.go"))
			for _, path := range files {
				f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
					}
				}
			}
			testFuncs[dir] = funcs
		}
		if len(funcs[test]) == 0 {
			t.Errorf("reachAllowed entry %s names %s, which is not a function of internal/%s's tests", name, entry.test, dir)
			continue
		}
		want := declared[name].Name()
		seen := map[string]bool{test: true}
		queue := []string{test}
		follow := func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !seen[id.Name] {
				seen[id.Name] = true
				queue = append(queue, id.Name)
			}
			return true
		}
		for len(queue) > 0 && !seen[want] {
			next := queue[0]
			queue = queue[1:]
			for _, n := range funcs[next] {
				ast.Inspect(n, follow)
			}
			for _, n := range bodies[next] {
				ast.Inspect(n, follow)
			}
		}
		if !seen[want] {
			t.Errorf("reachAllowed entry %s names %s, which does not call it", name, entry.test)
		}
	}
}

// TestJournalRecordsHaveAReader: every journal.Type the run manager
// writes in a journal.Record literal is a case of Recover's fold, so
// no record is fsync'd that replay never reads.
func TestJournalRecordsHaveAReader(t *testing.T) {
	typeName := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "journal" && strings.HasPrefix(sel.Sel.Name, "Type") {
				return sel.Sel.Name
			}
		}
		return ""
	}
	written, read := map[string]bool{}, map[string]bool{}
	dir := filepath.Join("internal", "runs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Record" {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
							if name := typeName(kv.Value); name != "" {
								written[name] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if n.Name.Name != "Recover" || n.Recv == nil {
					return true
				}
				ast.Inspect(n.Body, func(n ast.Node) bool {
					if cc, ok := n.(*ast.CaseClause); ok {
						for _, e := range cc.List {
							if name := typeName(e); name != "" {
								read[name] = true
							}
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}
	if len(written) == 0 || len(read) == 0 {
		t.Fatalf("found %d written and %d replayed record types: the scan no longer sees the run manager", len(written), len(read))
	}
	if unread := difference(written, read); len(unread) > 0 {
		t.Errorf("internal/runs writes journal records that Recover never reads: %v", unread)
	}
}

package mbrim_test

import (
	"go/ast"
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
	var facade []*ast.File
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range root {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(path, "_test.go") {
			facade = append(facade, f)
			continue
		}
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

	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("mbrim", fset, facade, nil)
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Scope()
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

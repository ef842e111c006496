package dtp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowFile lists the exported names that no other package of the
// module uses but that stay exported, one per line: the name, then its
// reason.
const surfaceAllowFile = "testdata/surface_allow.txt"

// TestExportedSurfaceIsUsed is the census of the exported surface. Every
// exported package-level name and every exported method of a named type,
// in the root package and in each internal/ package, must be referenced
// by a non-test file of another package of the module (cmd/, examples/
// and benchmark/ included). Two cases need no reference: a method that
// implements an interface the module declares or uses (sim.Actor,
// fmt.Stringer, http.Handler…), and a type that appears in the type of a
// used name, as a return type does. Every other exported name is
// unexported, deleted, or listed in the allow-file with a reason; an
// allow-file line for a name that is used, exempt or gone fails too.
// Struct fields are out of scope: wire formats read them by reflection.
func TestExportedSurfaceIsUsed(t *testing.T) {
	u := loadModule(t)
	allow := readSurfaceAllow(t)

	used, local := map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range u.pkgs {
		for _, obj := range p.info.Uses {
			if o := origin(obj); o.Pkg() == p.types {
				local[o] = true
			} else if o.Pkg() != nil {
				used[o] = true
			}
		}
	}

	// Types reachable from the type of a used name need no reference.
	reach := map[*types.TypeName]bool{}
	for obj := range used {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			continue // a named type's own fields and methods are counted one by one
		}
		walkNamed(obj.Type(), map[types.Type]bool{}, func(tn *types.TypeName) { reach[tn] = true })
	}

	ifaces := u.interfaces()
	seen := map[string]bool{}
	tally := map[string]int{}
	var fails []string
	for _, p := range u.pkgs {
		if !p.censused {
			continue
		}
		for _, c := range exportedNames(p.types) {
			seen[c.key] = true
			reason, listed := allow[c.key]
			why := ""
			tn, isType := c.obj.(*types.TypeName)
			switch {
			case used[c.obj]:
				why = "used by another package"
			case isType && reach[tn]:
				why = "in the type of a used name"
			case c.recv != nil && implementsInterface(c.recv, c.obj.Name(), ifaces):
				why = "implements an interface method"
			case listed:
				why = "allow-listed"
			}
			tally[why]++
			switch {
			case why == "" && local[c.obj]:
				fails = append(fails, fmt.Sprintf("%s is exported but only its own package uses it: unexport it, or list it in %s with a reason", c.key, surfaceAllowFile))
			case why == "":
				fails = append(fails, fmt.Sprintf("%s is exported but no non-test code uses it: delete it, or list it in %s with a reason", c.key, surfaceAllowFile))
			case listed && why != "allow-listed":
				fails = append(fails, fmt.Sprintf("%s is allow-listed (%q) but needs no entry: %s", c.key, reason, why))
			}
		}
	}
	for key := range allow {
		if !seen[key] {
			fails = append(fails, fmt.Sprintf("%s is allow-listed but is no exported name of the root or an internal/ package", key))
		}
	}
	t.Logf("%d exported names: %d used by another package, %d in the type of a used name, %d interface methods, %d allow-listed, %d unaccounted",
		len(seen), tally["used by another package"], tally["in the type of a used name"],
		tally["implements an interface method"], tally["allow-listed"], tally[""])
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// surfaceName is one exported name under census.
type surfaceName struct {
	key  string // "pkg.Name" or "pkg.Type.Method"; pkg is the root's "dtp" or the internal/ directory
	obj  types.Object
	recv *types.Named // the method's receiver type, nil for a package-level name
}

func exportedNames(pkg *types.Package) []surfaceName {
	prefix := pkg.Name()
	var out []surfaceName
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, surfaceName{key: prefix + "." + name, obj: obj})
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, surfaceName{key: prefix + "." + name + "." + m.Name(), obj: m, recv: named})
			}
		}
	}
	return out
}

// implementsInterface reports whether T or *T implements an interface in
// ifaces that has a method called name.
func implementsInterface(recv *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(recv, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// walkNamed calls fn for every named type reachable from t through
// pointers, containers, signatures, struct fields and type arguments.
func walkNamed(t types.Type, seen map[types.Type]bool, fn func(*types.TypeName)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		fn(t.Obj())
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				walkNamed(args.At(i), seen, fn)
			}
		}
		if t.Obj().Pkg() != nil {
			if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
				walkNamed(t.Underlying(), seen, fn)
			}
		}
	case *types.Pointer:
		walkNamed(t.Elem(), seen, fn)
	case *types.Slice:
		walkNamed(t.Elem(), seen, fn)
	case *types.Array:
		walkNamed(t.Elem(), seen, fn)
	case *types.Chan:
		walkNamed(t.Elem(), seen, fn)
	case *types.Map:
		walkNamed(t.Key(), seen, fn)
		walkNamed(t.Elem(), seen, fn)
	case *types.Signature:
		walkNamed(t.Params(), seen, fn)
		walkNamed(t.Results(), seen, fn)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkNamed(t.At(i).Type(), seen, fn)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			walkNamed(t.Field(i).Type(), seen, fn)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			walkNamed(t.Method(i).Type(), seen, fn)
		}
	default:
		if u := types.Unalias(t); u != t {
			walkNamed(u, seen, fn)
		}
	}
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func readSurfaceAllow(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(surfaceAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Fatalf("%s:%d: %s has no reason", surfaceAllowFile, n, key)
		}
		if _, dup := allow[key]; dup {
			t.Fatalf("%s:%d: %s is listed twice", surfaceAllowFile, n, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// modulePkg is one package of the module, type-checked from its non-test
// files.
type modulePkg struct {
	types    *types.Package
	info     *types.Info
	censused bool // the root package or an internal/ one
}

type moduleUniverse struct {
	pkgs []*modulePkg
	std  types.Importer
}

// loadModule type-checks every package of the module from source, in
// dependency order, importing the standard library from the export data
// that one `go list -deps -export` reports.
func loadModule(t *testing.T) *moduleUniverse {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path string }
	}
	var all []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	exports := map[string]string{}
	for _, p := range all {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	u := &moduleUniverse{std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return u.std.Import(path)
	})
	var mod string
	for _, p := range all {
		if p.Module == nil {
			continue
		}
		if mod == "" {
			mod = p.Module.Path
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		u.pkgs = append(u.pkgs, &modulePkg{
			types:    tp,
			info:     info,
			censused: p.ImportPath == mod || strings.HasPrefix(p.ImportPath, mod+"/internal/"),
		})
	}
	if mod == "" {
		t.Fatal("go list reported no package of the module")
	}
	return u
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces returns every interface the module declares or uses: the
// interface types of its declarations and expressions, those in the
// types of the names it uses, and the ones the standard library looks
// for dynamically (fmt.Stringer, error, the JSON and text marshalers).
func (u *moduleUniverse) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	visit := func(t types.Type) {
		walkNamed(t, map[types.Type]bool{}, func(tn *types.TypeName) { add(tn.Type()) })
		add(t)
	}
	for _, p := range u.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			visit(scope.Lookup(name).Type())
		}
		for _, tv := range p.info.Types {
			visit(tv.Type)
		}
		for _, obj := range p.info.Uses {
			visit(obj.Type())
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, name := range []string{"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
		"encoding/json.Marshaler", "encoding/json.Unmarshaler",
		"encoding.TextMarshaler", "encoding.TextUnmarshaler"} {
		dot := strings.LastIndex(name, ".")
		if pkg, err := u.std.Import(name[:dot]); err == nil {
			add(pkg.Scope().Lookup(name[dot+1:]).Type())
		}
	}
	return out
}

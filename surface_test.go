package dtp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
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
	"sync"
	"testing"
)

// surfaceAllowFile lists what the three censuses let stand, one entry per
// line: the key, then its reason. The key's shape says which census reads
// it (censusRule).
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
	allow := readSurfaceAllow(t, "exported")

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

// TestEveryFunctionIsCalled is the census of functions. Every unexported
// function or method, and every method of an unexported type, in the root
// package and in each internal/ package, must be referenced by a non-test
// file of the module outside its own body. Exempt are main, init, methods
// that implement an interface the module declares or uses, and the
// methods errors.Is, errors.As and errors.Unwrap look for. A function
// only tests call goes, or moves into a _test.go file if it is a test's
// oracle; the rest are listed in the allow-file with a reason.
func TestEveryFunctionIsCalled(t *testing.T) {
	u := loadModule(t)
	allow := readSurfaceAllow(t, "func")
	ifaces := u.interfaces()
	seen := map[string]bool{}
	tally := map[string]int{}
	var fails []string
	for _, f := range u.funcs() {
		if f.exported() {
			continue // TestExportedSurfaceIsUsed holds exported names
		}
		seen[f.key] = true
		reason, listed := allow[f.key]
		why := f.exempt(ifaces)
		if why == "" {
			switch {
			case u.calledOutside(f):
				why = "called"
			case listed:
				why = "allow-listed"
			}
		}
		tally[why]++
		switch {
		case why == "":
			fails = append(fails, fmt.Sprintf("%s is called by no non-test code: delete it, move it into a _test.go file, or list it in %s with a reason", f.key, surfaceAllowFile))
		case listed && why != "allow-listed":
			fails = append(fails, fmt.Sprintf("%s is allow-listed (%q) but needs no entry: %s", f.key, reason, why))
		}
	}
	for key := range allow {
		if !seen[key] {
			fails = append(fails, fmt.Sprintf("%s is allow-listed but is no unexported function or method of the root or an internal/ package", key))
		}
	}
	t.Logf("%d unexported functions and methods: %d called, %d interface methods, %d main or init, %d allow-listed, %d unaccounted",
		len(seen), tally["called"], tally["implements an interface method"], tally["main or init"], tally["allow-listed"], tally[""])
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// TestEveryParameterVaries is the census of parameters. A parameter of a
// function or method of the root package or an internal/ package fails
// when every non-test reference to the function is a direct call and
// every such call passes the same constant: the program runs one value,
// so the parameter is that constant, and the code only its other values
// reached goes. Exempt are main, init, interface methods (their callers
// go through the interface) and the root package's exported API, whose
// callers are outside the module. A parameter that selects what is
// computed, rather than how the program runs, may be allow-listed as
// "pkg.Func(param)" with its reason.
func TestEveryParameterVaries(t *testing.T) {
	u := loadModule(t)
	allow := readSurfaceAllow(t, "param")
	ifaces := u.interfaces()
	seen := map[string]bool{}
	flagged, listedN := 0, 0
	var fails []string
	for _, f := range u.funcs() {
		if f.exempt(ifaces) != "" || (f.root && f.exported()) {
			continue
		}
		sig := f.obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			name := sig.Params().At(i).Name()
			if name == "" || name == "_" {
				name = fmt.Sprintf("#%d", i)
			}
			key := fmt.Sprintf("%s(%s)", f.key, name)
			seen[key] = true
			reason, listed := allow[key]
			val, one := u.sameConstant(f.obj, i)
			switch {
			case one && listed:
				listedN++
			case one:
				flagged++
				fails = append(fails, fmt.Sprintf("%s: every non-test call passes %s: make it a constant, or list %s in %s with a reason", key, val, key, surfaceAllowFile))
			case listed:
				fails = append(fails, fmt.Sprintf("%s is allow-listed (%q) but needs no entry: its calls pass more than one value, or a non-constant, or it is used as a value", key, reason))
			}
		}
	}
	for key := range allow {
		if !seen[key] {
			fails = append(fails, fmt.Sprintf("%s is allow-listed but is no parameter of a function of the root or an internal/ package", key))
		}
	}
	t.Logf("%d parameters: %d single-constant and allow-listed, %d single-constant and unaccounted", len(seen), listedN, flagged)
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// censusRule says which census reads an allow-file key, by its shape:
// "pkg.Func(param)" names a parameter, a key whose names after the
// package are all exported names an exported name, and any other key a
// function or method.
func censusRule(key string) string {
	if strings.Contains(key, "(") {
		return "param"
	}
	_, rest, _ := strings.Cut(key, ".")
	for _, name := range strings.Split(rest, ".") {
		if !token.IsExported(name) {
			return "func"
		}
	}
	return "exported"
}

// funcDecl is one function or method declared in the root package or an
// internal/ package.
type funcDecl struct {
	key  string // "pkg.name" or "pkg.Type.method", as in surfaceName
	obj  *types.Func
	decl *ast.FuncDecl
	recv *types.Named // the method's receiver type, nil for a function
	root bool         // declared in the root package
}

// exported reports whether f is an exported function or an exported
// method of an exported type.
func (f funcDecl) exported() bool {
	return f.obj.Exported() && (f.recv == nil || f.recv.Obj().Exported())
}

// exempt says why f needs no caller of its own, or "": the runtime calls
// main and init, and an interface method's callers go through the
// interface.
func (f funcDecl) exempt(ifaces []*types.Interface) string {
	switch {
	case f.recv == nil && (f.obj.Name() == "main" || f.obj.Name() == "init"):
		return "main or init"
	case f.recv != nil && implementsInterface(f.recv, f.obj.Name(), ifaces):
		return "implements an interface method"
	}
	return ""
}

func (u *moduleUniverse) funcs() []funcDecl {
	var out []funcDecl
	for _, p := range u.pkgs {
		if !p.censused {
			continue
		}
		for _, file := range p.files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := p.info.Defs[fd.Name].(*types.Func)
				f := funcDecl{key: p.types.Name() + "." + obj.Name(), obj: obj, decl: fd, root: p.root}
				if r := obj.Type().(*types.Signature).Recv(); r != nil {
					rt := r.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					f.recv = types.Unalias(rt).(*types.Named)
					f.key = p.types.Name() + "." + f.recv.Obj().Name() + "." + obj.Name()
				}
				out = append(out, f)
			}
		}
	}
	return out
}

// calledOutside reports whether a non-test file references f outside f's
// own declaration.
func (u *moduleUniverse) calledOutside(f funcDecl) bool {
	for _, r := range u.refs[f.obj] {
		if r.id.Pos() < f.decl.Pos() || r.id.Pos() >= f.decl.End() {
			return true
		}
	}
	return false
}

// sameConstant reports whether every non-test reference to fn is a direct
// call and every such call passes the same constant as parameter i, and
// returns that constant.
func (u *moduleUniverse) sameConstant(fn *types.Func, i int) (string, bool) {
	sig := fn.Type().(*types.Signature)
	if sig.Variadic() && i == sig.Params().Len()-1 {
		return "", false
	}
	refs := u.refs[fn]
	var val constant.Value
	for _, r := range refs {
		if r.call == nil || len(r.call.Args) <= i || (!sig.Variadic() && len(r.call.Args) != sig.Params().Len()) {
			return "", false
		}
		v := r.info.Types[r.call.Args[i]].Value
		if v == nil || (val != nil && (v.Kind() != val.Kind() || v.ExactString() != val.ExactString())) {
			return "", false
		}
		val = v
	}
	if val == nil {
		return "", false
	}
	return val.String(), true
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

// readSurfaceAllow reads the allow-file and returns its entries for one
// census (censusRule).
func readSurfaceAllow(t *testing.T, rule string) map[string]string {
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
	for key := range allow {
		if censusRule(key) != rule {
			delete(allow, key)
		}
	}
	return allow
}

// modulePkg is one package of the module, type-checked from its non-test
// files.
type modulePkg struct {
	types    *types.Package
	info     *types.Info
	files    []*ast.File
	censused bool // the root package or an internal/ one
	root     bool
}

type moduleUniverse struct {
	pkgs []*modulePkg
	std  types.Importer
	refs map[*types.Func][]funcRef // every non-test reference to each function of the module
}

// funcRef is one non-test reference to a function.
type funcRef struct {
	id   *ast.Ident
	call *ast.CallExpr // the call whose callee id is; nil if the function is used as a value
	info *types.Info   // the referring package's
}

var (
	moduleOnce   sync.Once
	moduleLoaded *moduleUniverse
	moduleErr    error
)

// loadModule type-checks every package of the module from source once per
// test process; the censuses share the result.
func loadModule(t *testing.T) *moduleUniverse {
	t.Helper()
	moduleOnce.Do(func() { moduleLoaded, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleLoaded
}

// typeCheckModule type-checks every package of the module from source, in
// dependency order, importing the standard library from the export data
// that one `go list -deps -export` reports.
func typeCheckModule() (*moduleUniverse, error) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go list: %v\n%s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list: %v", err)
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
			return nil, err
		}
		all = append(all, p)
	}
	exports := map[string]string{}
	for _, p := range all {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	u := &moduleUniverse{
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		}),
		refs: map[*types.Func][]funcRef{},
	}
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
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		u.pkgs = append(u.pkgs, &modulePkg{
			types:    tp,
			info:     info,
			files:    files,
			censused: p.ImportPath == mod || strings.HasPrefix(p.ImportPath, mod+"/internal/"),
			root:     p.ImportPath == mod,
		})
		u.addRefs(mod, files, info)
	}
	if mod == "" {
		return nil, errors.New("go list reported no package of the module")
	}
	return u, nil
}

// addRefs records the references one package makes to functions of the
// module, each with the call it is the callee of.
func (u *moduleUniverse) addRefs(mod string, files []*ast.File, info *types.Info) {
	calls := map[*ast.Ident]*ast.CallExpr{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id := callee(call.Fun); id != nil {
					calls[id] = call
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		fn, ok := origin(obj).(*types.Func)
		if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != mod && !strings.HasPrefix(fn.Pkg().Path(), mod+"/")) {
			continue
		}
		u.refs[fn] = append(u.refs[fn], funcRef{id: id, call: calls[id], info: info})
	}
}

// callee returns the identifier that names a call's function: f in f(x),
// pkg.f(x), v.f(x) and f[T](x).
func callee(fun ast.Expr) *ast.Ident {
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.SelectorExpr:
			return f.Sel
		case *ast.Ident:
			return f
		default:
			return nil
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces returns every interface the module declares or uses: the
// interface types of its declarations and expressions, those in the
// types of the names it uses, and the ones the standard library looks
// for dynamically (fmt.Stringer, error, the JSON and text marshalers, and
// the Is, As and Unwrap methods of errors).
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
	// The methods errors.Is, errors.As and errors.Unwrap look for.
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	for _, m := range []struct {
		name       string
		param, res types.Type
	}{
		{"Is", errType, types.Typ[types.Bool]},
		{"As", anyType, types.Typ[types.Bool]},
		{"Unwrap", nil, errType},
	} {
		var params *types.Tuple
		if m.param != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", m.param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", m.res)), false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil)
		it.Complete()
		add(it)
	}
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

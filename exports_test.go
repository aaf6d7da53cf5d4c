package repro_test

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis/solverlint"
)

// exportAllowlist names the exported functions under internal/ and
// cmd/ that no non-test file calls but other packages' tests need.
// Keys are "<package path>.<func>" or "<package path>.<Recv>.<method>".
var exportAllowlist = map[string]string{
	"repro/internal/csp.Store.Prunes":      "differential oracle: the geost pruneOthers test checks it against its reference prune for prune",
	"repro/internal/online.ApplyMoves":     "replay oracle: the defrag and integration tests replay every move schedule through it",
	"repro/internal/workload.MustGenerate": "fixture: the instance generator of the golden, Table-I, canon, core and service tests",
}

// TestNoTestOnlyExports keeps the exported surface honest: every
// exported function or method declared in a non-test file under
// internal/ or cmd/ must be referenced from some non-test file of the
// root module or of the perfbench module (a separate module that the
// root build never compiles), or sit on exportAllowlist with a reason.
// A method that makes its receiver type satisfy an interface declaring
// it (String, Error, ServeHTTP, ...) is exempt, since it can be called
// through that interface.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := solverlint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := solverlint.Load("perfbench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(root, bench...)

	used := map[string]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				used[funcKey(fn)] = true
			}
		}
		for _, tv := range p.Info.Types {
			ifaces = appendInterface(ifaces, tv.Type)
		}
		ifaces = collectInterfaces(ifaces, p.Types, seen)
	}
	ifaces = appendInterface(ifaces, types.Universe.Lookup("error").Type())

	declared := map[string]bool{}
	for _, p := range root {
		if !strings.HasPrefix(p.Path, "repro/internal/") && !strings.HasPrefix(p.Path, "repro/cmd/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if fd.Recv != nil && implementsWith(fn, ifaces) {
					continue
				}
				key := funcKey(fn)
				declared[key] = true
				if used[key] {
					continue
				}
				if _, ok := exportAllowlist[key]; !ok {
					t.Errorf("%s is exported but no non-test file calls it: delete it, move it into a _test.go file, or allowlist it with a reason", key)
				}
			}
		}
	}
	for key, reason := range exportAllowlist {
		if !declared[key] {
			t.Errorf("allowlisted %s is not declared: drop it from exportAllowlist", key)
		}
		if used[key] {
			t.Errorf("allowlisted %s now has a non-test caller: drop it from exportAllowlist", key)
		}
		if reason == "" {
			t.Errorf("allowlisted %s has no reason", key)
		}
	}
}

// funcKey names fn by package path, receiver type name (for methods)
// and function name.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// collectInterfaces appends every named interface type declared in
// pkg or in a package it imports.
func collectInterfaces(ifaces []*types.Interface, pkg *types.Package, seen map[*types.Package]bool) []*types.Interface {
	if seen[pkg] {
		return ifaces
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			ifaces = appendInterface(ifaces, tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		ifaces = collectInterfaces(ifaces, imp, seen)
	}
	return ifaces
}

func appendInterface(ifaces []*types.Interface, t types.Type) []*types.Interface {
	if t == nil {
		return ifaces
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		ifaces = append(ifaces, iface)
	}
	return ifaces
}

// implementsWith reports whether method's receiver type satisfies some
// interface that declares method. Methods are matched by name and
// signature text, because the two modules are type-checked with
// separate importers and share no type identities.
func implementsWith(method *types.Func, ifaces []*types.Interface) bool {
	recv := method.Type().(*types.Signature).Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	mset := types.NewMethodSet(recv)
	has := func(m *types.Func) bool {
		sel := mset.Lookup(m.Pkg(), m.Name())
		return sel != nil && shape(sel.Type()) == shape(m.Type())
	}
	for _, iface := range ifaces {
		declares := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method.Name() {
				declares = true
			}
		}
		if !declares {
			continue
		}
		all := true
		for i := 0; i < iface.NumMethods() && all; i++ {
			all = has(iface.Method(i))
		}
		if all {
			return true
		}
	}
	return false
}

// shape spells a signature's parameter and result types without their
// names, with interface{} and any spelled alike.
func shape(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return strings.ReplaceAll(b.String(), "interface{}", "any")
}

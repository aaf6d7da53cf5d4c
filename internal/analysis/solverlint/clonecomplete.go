package solverlint

import (
	"go/ast"
	"go/types"
)

// CloneComplete enforces the Clonable protocol that multi-worker
// branch-and-bound depends on: any named type with a Propagate method
// (a propagator) must also implement CloneFor, or Store.Clone rejects
// the whole store and Minimize with Options.Workers > 1 fails for every
// model that posts the propagator. It additionally checks CloneFor bodies for
// receiver-field aliasing: a composite literal or assignment that
// copies a slice- or map-typed field straight from the receiver shares
// mutable state between the original and the clone, which corrupts
// concurrent workers. Immutable payload (lookup tables, geometry) may
// be shared, but must say so with a //solverlint:allow clonecomplete
// comment — the aliasing audit lives in the code, not in reviewers'
// heads.
var CloneComplete = &Analyzer{
	Name: "clonecomplete",
	Doc:  "propagators must implement CloneFor, and CloneFor must not alias mutable slice/map fields of the receiver",
	Run:  runCloneComplete,
}

func runCloneComplete(pass *Pass) error {
	checkCloneForPresence(pass)
	checkCloneForAliasing(pass)
	return nil
}

// checkCloneForPresence reports named types that have a Propagate
// method but no CloneFor.
func checkCloneForPresence(pass *Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && !tn.IsAlias() {
			checkTypeHasCloneFor(pass, tn)
		}
	}
}

func checkTypeHasCloneFor(pass *Pass, tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	// Method sets: look through a pointer receiver so value- and
	// pointer-receiver propagators are both covered.
	mset := types.NewMethodSet(types.NewPointer(named))
	prop := lookupMethod(mset, "Propagate")
	if prop == nil || !isPropagateSig(prop) {
		return
	}
	if lookupMethod(mset, "CloneFor") != nil {
		return
	}
	pass.Reportf(tn.Pos(),
		"type %s has a Propagate method but no CloneFor: Store.Clone rejects it, so Minimize fails with Workers > 1 (implement CloneFor, or document why the propagator is not clonable)",
		tn.Name())
}

func lookupMethod(mset *types.MethodSet, name string) *types.Func {
	for i := 0; i < mset.Len(); i++ {
		if f, ok := mset.At(i).Obj().(*types.Func); ok && f.Name() == name {
			return f
		}
	}
	return nil
}

// isPropagateSig reports whether f looks like a propagator's Propagate:
// at least one parameter (the store) and exactly one result of type
// error.
func isPropagateSig(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() < 1 || sig.Results().Len() != 1 {
		return false
	}
	return types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}

// checkCloneForAliasing inspects every CloneFor method body for direct
// receiver-field aliasing of slice/map fields.
func checkCloneForAliasing(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "CloneFor" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := receiverObject(pass, fd)
			if recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					reportAliasedField(pass, recv, n.Value)
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						reportAliasedField(pass, recv, rhs)
					}
				case *ast.CompositeLit:
					// Positional composite literals: &T{p.xs, p.c}.
					for _, elt := range n.Elts {
						if _, ok := elt.(*ast.KeyValueExpr); !ok {
							reportAliasedField(pass, recv, elt)
						}
					}
				}
				return true
			})
		}
	}
}

// receiverObject returns the types.Object of fd's named receiver, or
// nil for anonymous receivers.
func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// reportAliasedField reports e when it is a selector recv.F whose field
// F has slice or map type — shared mutable state between original and
// clone.
func reportAliasedField(pass *Pass, recv types.Object, e ast.Expr) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recv {
		return
	}
	t := pass.TypeOf(sel)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		pass.Reportf(e.Pos(),
			"CloneFor aliases field %s.%s (%s): the clone shares the backing store with the original; deep-copy it, or mark it immutable with a //solverlint:allow clonecomplete comment",
			id.Name, sel.Sel.Name, t)
	}
}

package solverlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockScope enforces the serving path's critical-section discipline on
// sync.Mutex/sync.RWMutex:
//
//   - no blocking operation while a lock is held: channel send or
//     receive, a select with no default case, time.Sleep, network
//     calls (package net or net/http), and solver entry points
//     (Solve/Minimize/Place). A
//     multi-second solve or an unbounded channel wait inside a
//     critical section turns every other lock acquirer into a queue —
//     the exact convoy the bounded admission pool exists to prevent.
//   - the unlock must be reachable on every path out of the critical
//     section: a return (explicit or the implicit one at the end of
//     the function body) while a lock is held and no deferred unlock
//     is registered leaks the lock forever.
//
// The analysis is a per-function abstract interpretation of the
// statement tree: a held-set of receiver expressions is threaded
// through the control flow, branches are analyzed independently and
// merged by intersection (a lock counts as held after an if/switch
// only when every falling-through branch still holds it), and
// function literals are analyzed as independent functions (a spawned
// or deferred literal does not run under the creator's critical
// section). The intersection merge trades false negatives for zero
// false positives on release-in-one-branch patterns.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "no blocking operation (channel op, bare select, time.Sleep, net or solve call) while a sync.Mutex/RWMutex is held, and every path out of a critical section must unlock",
	Run:  runLockScope,
}

// blockingSolveNames are callee names treated as unboundedly slow:
// the solver entry points a request-path critical section must never
// wait on.
var blockingSolveNames = map[string]bool{
	"Solve": true, "Minimize": true, "Place": true,
}

// blockingPkgs are import paths whose calls are assumed to touch the
// network.
var blockingPkgs = map[string]bool{"net": true, "net/http": true}

func runLockScope(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLockBody(pass, fd.Body)
		}
		// Function literals run outside their creator's critical
		// section (goroutines, callbacks, defers), so each body is an
		// independent lock scope.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
				walkLockBody(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// lockEnv is the abstract state at one program point: which mutex
// receivers are currently locked (mapped to the position of the
// acquiring call) and which have a deferred unlock registered.
type lockEnv struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockEnv() *lockEnv {
	return &lockEnv{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (e *lockEnv) clone() *lockEnv {
	c := newLockEnv()
	for k, v := range e.held {
		c.held[k] = v
	}
	for k, v := range e.deferred {
		c.deferred[k] = v
	}
	return c
}

// heldReceivers returns the locked receivers in stable order.
// withDeferred includes receivers whose unlock is deferred (still
// locked until the function returns, so blocking under them is just as
// harmful — but returning is fine).
func (e *lockEnv) heldReceivers(withDeferred bool) []string {
	var out []string
	for r := range e.held {
		out = append(out, r)
	}
	if withDeferred {
		for r := range e.deferred {
			if _, ok := e.held[r]; !ok {
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}

func walkLockBody(pass *Pass, body *ast.BlockStmt) {
	env := newLockEnv()
	terminated := walkLockStmts(pass, body.List, env)
	if !terminated {
		for _, r := range env.heldReceivers(false) {
			pass.Reportf(env.held[r],
				"%s.Lock() is not released on the fall-through path out of this function: add an unlock or defer %s.Unlock()", r, r)
		}
	}
}

// walkLockStmts interprets a statement list, mutating env in place.
// It reports whether the list definitely terminates (ends control flow
// via return, branch, or panic-like select/switch whose cases all
// terminate).
func walkLockStmts(pass *Pass, stmts []ast.Stmt, env *lockEnv) bool {
	terminated := false
	for _, s := range stmts {
		if walkLockStmt(pass, s, env) {
			terminated = true
		}
	}
	return terminated
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, env *lockEnv) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, acquire, ok := lockCall(pass, s.X); ok {
			if acquire {
				env.held[recv] = s.Pos()
			} else {
				delete(env.held, recv)
			}
			return false
		}
		checkBlockingExpr(pass, s.X, env)
	case *ast.DeferStmt:
		if recv, acquire, ok := lockCall(pass, s.Call); ok && !acquire {
			env.deferred[recv] = true
			delete(env.held, recv)
			return false
		}
		// defer func() { mu.Unlock() }() registers the unlocks of the
		// literal body; the body itself is analyzed independently.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if recv, acquire, ok := lockCall(pass, call); ok && !acquire {
					env.deferred[recv] = true
					delete(env.held, recv)
				}
				return true
			})
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			checkBlockingExpr(pass, res, env)
		}
		for _, r := range env.heldReceivers(false) {
			pass.Reportf(s.Pos(),
				"return while %s is held: this path leaks the lock (unlock before returning, or defer the unlock)", r)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto transfer control within the function;
		// the surrounding loop analysis keeps its entry state, so the
		// branch just ends this path.
		return true
	case *ast.BlockStmt:
		return walkLockStmts(pass, s.List, env)
	case *ast.LabeledStmt:
		return walkLockStmt(pass, s.Stmt, env)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, env)
		}
		checkBlockingExpr(pass, s.Cond, env)
		thenEnv := env.clone()
		thenTerm := walkLockStmts(pass, s.Body.List, thenEnv)
		elseEnv := env.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = walkLockStmt(pass, s.Else, elseEnv)
		}
		mergeLockBranches(env, []*lockEnv{thenEnv, elseEnv}, []bool{thenTerm, elseTerm})
		return thenTerm && elseTerm
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, env)
		}
		if s.Cond != nil {
			checkBlockingExpr(pass, s.Cond, env)
		}
		bodyEnv := env.clone()
		walkLockStmts(pass, s.Body.List, bodyEnv)
		// The loop may run zero times: keep the entry state.
	case *ast.RangeStmt:
		// Ranging over a channel blocks until the channel closes.
		if t := pass.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				reportBlocking(pass, s.Pos(), env, "range over channel %s", types.ExprString(s.X))
			}
		}
		bodyEnv := env.clone()
		walkLockStmts(pass, s.Body.List, bodyEnv)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, env)
		}
		if s.Tag != nil {
			checkBlockingExpr(pass, s.Tag, env)
		}
		return walkLockCases(pass, s.Body, env, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, env)
		}
		return walkLockCases(pass, s.Body, env, true)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			reportBlocking(pass, s.Pos(), env, "select with no default case")
		}
		return walkLockCases(pass, s.Body, env, hasDefault)
	case *ast.GoStmt:
		// The goroutine does not hold the creator's locks, and
		// starting it does not block; its literal body is analyzed
		// independently by runLockScope. Arguments are evaluated here.
		for _, a := range s.Call.Args {
			checkBlockingExpr(pass, a, env)
		}
	case *ast.SendStmt:
		reportBlocking(pass, s.Pos(), env, "channel send %s <- ...", types.ExprString(s.Chan))
		checkBlockingExpr(pass, s.Value, env)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkBlockingExpr(pass, e, env)
		}
		for _, e := range s.Lhs {
			checkBlockingExpr(pass, e, env)
		}
	case *ast.DeclStmt:
		checkBlockingNode(pass, s, env)
	case *ast.IncDecStmt:
		checkBlockingExpr(pass, s.X, env)
	}
	return false
}

// walkLockCases analyzes the clauses of a switch/select body as
// parallel branches. exhaustive reports whether falling through
// without entering any clause is possible (switch without default,
// select with default): when it is, the entry env joins the merge.
func walkLockCases(pass *Pass, body *ast.BlockStmt, env *lockEnv, mayFallThrough bool) bool {
	var envs []*lockEnv
	var terms []bool
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				checkBlockingExpr(pass, e, env)
			}
			list = cc.Body
		case *ast.CommClause:
			// The comm operation itself is covered by the
			// select-with-no-default check; with a default present it
			// does not block.
			list = cc.Body
		}
		ce := env.clone()
		terms = append(terms, walkLockStmts(pass, list, ce))
		envs = append(envs, ce)
	}
	if len(envs) == 0 {
		return false
	}
	if mayFallThrough {
		envs = append(envs, env.clone())
		terms = append(terms, false)
	}
	allTerm := true
	for _, t := range terms {
		if !t {
			allTerm = false
		}
	}
	mergeLockBranches(env, envs, terms)
	return allTerm
}

// mergeLockBranches folds branch exit states back into env: a lock is
// held afterwards only if every non-terminating branch still holds it;
// deferred unlocks accumulate (registering one on any path suffices to
// silence the leak check, which keeps the analysis false-positive
// free).
func mergeLockBranches(env *lockEnv, envs []*lockEnv, terms []bool) {
	merged := map[string]token.Pos{}
	first := true
	for i, be := range envs {
		if terms[i] {
			continue
		}
		if first {
			for k, v := range be.held {
				merged[k] = v
			}
			first = false
			continue
		}
		for k := range merged {
			if _, ok := be.held[k]; !ok {
				delete(merged, k)
			}
		}
	}
	if !first { // at least one branch falls through
		env.held = merged
	}
	for _, be := range envs {
		for k := range be.deferred {
			env.deferred[k] = true
		}
	}
}

// lockCall classifies expr as a Lock/RLock (acquire=true) or
// Unlock/RUnlock (acquire=false) call on a sync.Mutex or sync.RWMutex
// receiver, returning the receiver's source text.
func lockCall(pass *Pass, expr ast.Expr) (recv string, acquire, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	t := pass.TypeOf(sel.X)
	if t == nil || !isSyncMutexType(t) {
		return "", false, false
	}
	return types.ExprString(sel.X), acquire, true
}

// isSyncMutexType reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex, or a same-named fixture stand-in.
func isSyncMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// checkBlockingExpr scans one expression for blocking operations,
// skipping nested function literals (their bodies do not run here).
func checkBlockingExpr(pass *Pass, expr ast.Expr, env *lockEnv) {
	if expr == nil {
		return
	}
	checkBlockingNode(pass, expr, env)
}

func checkBlockingNode(pass *Pass, node ast.Node, env *lockEnv) {
	if len(env.held) == 0 && len(env.deferred) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportBlocking(pass, n.Pos(), env, "channel receive %s", types.ExprString(n))
			}
		case *ast.CallExpr:
			if why := blockingCall(pass, n); why != "" {
				reportBlocking(pass, n.Pos(), env, "%s", why)
			}
		}
		return true
	})
}

// blockingCall describes why call blocks, or returns "".
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		if blockingSolveNames[sel.Sel.Name] {
			return "call to solver entry point " + sel.Sel.Name
		}
		return ""
	}
	if pkg := fn.Pkg(); pkg != nil {
		if pkg.Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
		if blockingPkgs[pkg.Path()] {
			return "network call " + pkg.Path() + "." + fn.Name()
		}
	}
	if blockingSolveNames[fn.Name()] {
		return "call to solver entry point " + fn.Name()
	}
	return ""
}

func reportBlocking(pass *Pass, pos token.Pos, env *lockEnv, format string, args ...any) {
	held := env.heldReceivers(true)
	if len(held) == 0 {
		return
	}
	msg := "blocking operation while " + held[0] + " is held: "
	pass.Reportf(pos, msg+format+" (move it outside the critical section)", args...)
}

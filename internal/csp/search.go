package csp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// VarChooser selects the next unassigned variable to branch on, or nil
// when all given variables are assigned.
type VarChooser func(vars []*Var) *Var

// ValueOrderer appends v's branching values, in trial order and from
// v's current domain, to the empty buf and returns the result. The
// search passes one reused buffer per depth, which the orderer must
// not retain.
type ValueOrderer func(v *Var, buf []int) []int

// FirstUnassigned branches on the variables in the order given.
func FirstUnassigned(vars []*Var) *Var {
	for _, v := range vars {
		if !v.Assigned() {
			return v
		}
	}
	return nil
}

// SmallestDomain implements first-fail: branch on an unassigned variable
// with the fewest remaining values (ties broken by order).
func SmallestDomain(vars []*Var) *Var {
	var best *Var
	for _, v := range vars {
		if v.Assigned() {
			continue
		}
		if best == nil || v.Size() < best.Size() {
			best = v
		}
	}
	return best
}

// AscendingValues tries domain values smallest-first.
func AscendingValues(v *Var, buf []int) []int { return v.Domain().AppendValues(buf) }

// PreferValues wraps a ValueOrderer so each variable tries a preferred
// value (keyed by variable id, so the preference holds on every
// parallel worker's store) before the inner order. Variables without a
// preference, or whose preferred value has left the domain, keep the
// inner order untouched. When the preferences form a solution of the
// model, the first dive of a depth-first search reproduces it without
// backtracking — the mechanism behind warm-started branch-and-bound:
// the heuristic placement becomes the search's first incumbent and
// every later branch is taken with a real bound already in place.
func PreferValues(inner ValueOrderer, pref map[int]int) ValueOrderer {
	if len(pref) == 0 {
		return inner
	}
	return func(v *Var, buf []int) []int {
		out := inner(v, buf)
		want, ok := pref[v.ID()]
		if !ok {
			return out
		}
		for i, val := range out {
			if val == want {
				copy(out[1:i+1], out[:i])
				out[0] = want
				break
			}
		}
		return out
	}
}

// Options configures search.
type Options struct {
	// ChooseVar selects the branching variable; default SmallestDomain.
	ChooseVar VarChooser
	// OrderValues orders branching values; default AscendingValues.
	OrderValues ValueOrderer
	// Deadline, when non-zero, aborts search afterwards; partial results
	// (solutions found so far) remain valid.
	Deadline time.Time
	// StallNodes, when positive, makes Minimize stop after exploring
	// this many nodes without improving the incumbent — a deterministic
	// convergence criterion for anytime optimisation. Solve ignores it.
	StallNodes int64
	// MaxNodes, when positive, aborts search after exploring this many
	// branching nodes (counted across all parallel workers) with Reason
	// StopNodeLimit — a deterministic budget that, unlike Deadline,
	// does not depend on machine speed.
	MaxNodes int64
}

// OptionError reports an invalid Options field value.
type OptionError struct {
	// Field is the Options field name.
	Field string
	// Value is the rejected value.
	Value int64
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("csp: invalid Options.%s: %d", e.Field, e.Value)
}

func (o Options) withDefaults() (Options, error) {
	switch {
	case o.StallNodes < 0:
		return o, &OptionError{Field: "StallNodes", Value: o.StallNodes}
	case o.MaxNodes < 0:
		return o, &OptionError{Field: "MaxNodes", Value: o.MaxNodes}
	}
	if o.ChooseVar == nil {
		o.ChooseVar = SmallestDomain
	}
	if o.OrderValues == nil {
		o.OrderValues = AscendingValues
	}
	return o, nil
}

// StopReason says why a search run ended. The zero value (StopExhausted)
// is only reported by runs that actually ran to completion; aborted runs
// carry the specific cause, removing the silent-stop ambiguity between a
// proof, a stall and a timeout.
type StopReason uint8

// Stop reasons.
const (
	// StopExhausted: the search space was fully explored (for Minimize
	// this is the optimality proof).
	StopExhausted StopReason = iota
	// StopTimeout: Options.Deadline fired.
	StopTimeout
	// StopStalled: Options.StallNodes elapsed without an improvement.
	StopStalled
	// StopCut: enumeration was cut short by the solution callback.
	StopCut
	// StopNodeLimit: Options.MaxNodes was reached.
	StopNodeLimit
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopExhausted:
		return "exhausted"
	case StopTimeout:
		return "timeout"
	case StopStalled:
		return "stalled"
	case StopCut:
		return "cut"
	case StopNodeLimit:
		return "node-limit"
	}
	return "unknown"
}

// SearchResult summarises a Solve run.
type SearchResult struct {
	// Solutions is the number of solutions delivered.
	Solutions int
	// Complete is true when the search space was exhausted (false when
	// the deadline fired or enumeration was cut short).
	Complete bool
	// Reason says why the run ended (exhausted, timeout or cut).
	Reason StopReason
	Effort
}

// Effort is the work of one search run, counted by the search itself:
// on the searched store, and for a parallel run on each worker's store
// from its root fixpoint on.
type Effort struct {
	// Nodes counts branching nodes explored.
	Nodes int64
	// Branches counts branch attempts: the values tried at those nodes.
	Branches int64
	// Backtracks counts dead ends: branch attempts whose propagation
	// failed.
	Backtracks int64
	// Propagations counts propagator executions during the run.
	Propagations int64
	// Prunes counts domain reductions during the run, and PrunedValues
	// the values they removed.
	Prunes       int64
	PrunedValues int64
	// MaxDepth is the depth of the deepest branch attempt (0 at the
	// root).
	MaxDepth int
}

// Solve runs depth-first search over vars, invoking onSolution with the
// store in an all-assigned, propagated state for every solution. If
// onSolution returns false, enumeration stops early. The store is left
// at its entry state. Solve always searches st itself.
func Solve(st *Store, vars []*Var, opts Options, onSolution func(*Store) bool) (SearchResult, error) {
	var res SearchResult
	r, err := newRun(st, opts)
	if err != nil {
		return res, err
	}
	w := &worker{r: r, st: st, vars: vars, vals: make([][]int, len(vars))}
	w.leaf = func() bool {
		res.Solutions++
		if !onSolution(st) {
			r.stop(StopCut)
			return true
		}
		return false
	}
	err = w.root()
	res.Effort = r.effort()
	res.Reason, res.Complete = r.outcome(err)
	return res, err
}

// ObjectivePoint is one improving step of a branch-and-bound run: the
// new incumbent objective, and when it was found in nodes and wall-clock
// time since the start of the run. The sequence of points reconstructs
// the solver's anytime behaviour (objective-vs-time curves).
type ObjectivePoint struct {
	Objective int
	Nodes     int64
	Elapsed   time.Duration
}

// MinimizeResult reports the outcome of a branch-and-bound run.
type MinimizeResult struct {
	// Found is true when at least one solution was seen.
	Found bool
	// Best is the objective value of the best solution.
	Best int
	// Optimal is true when the search proved Best optimal (search space
	// exhausted under the final bound).
	Optimal bool
	// Stalled is true when the run stopped via Options.StallNodes
	// (equivalent to Reason == StopStalled).
	Stalled bool
	// Reason says why the run ended: StopExhausted is a completed
	// optimality proof (or infeasibility proof), StopStalled the
	// StallNodes criterion, StopTimeout the deadline.
	Reason StopReason
	Effort
	// BestObjectiveTrace records every improving solution in order —
	// the incumbent-over-time series.
	BestObjectiveTrace []ObjectivePoint
}

// Minimize finds an assignment of vars minimising obj using depth-first
// branch-and-bound: after each improving solution the objective is
// bounded below the incumbent and search continues. onImproved (may be
// nil) is called with the store at each improving solution so the caller
// can snapshot the assignment. The store is restored on return.
// MinimizeParallel runs the same search on several goroutines.
func Minimize(st *Store, vars []*Var, obj *Var, opts Options, onImproved func(*Store, int)) (MinimizeResult, error) {
	return minimize(st, vars, obj, opts, onImproved, func(r *run, vars []*Var) error {
		return r.minimizer(st, vars, obj).root()
	})
}

// minimize runs search, the sequential or the parallel recursion, as
// one Minimize call over vars (obj included) and reports its result.
func minimize(st *Store, vars []*Var, obj *Var, opts Options, onImproved func(*Store, int), search func(r *run, vars []*Var) error) (MinimizeResult, error) {
	var res MinimizeResult
	r, err := newRun(st, opts)
	if err != nil {
		return res, err
	}
	//solverlint:allow nondeterminism run-start timestamp only feeds ObjectivePoint.Elapsed (anytime trace), never a search decision
	r.start = time.Now()
	r.onImproved = onImproved
	searchVars := vars
	if !containsVar(vars, obj) {
		searchVars = append(append([]*Var{}, vars...), obj)
	}
	err = search(r, searchVars)
	res.Found, res.Best, res.BestObjectiveTrace = r.found.Load(), r.best, r.trace
	res.Effort = r.effort()
	res.Reason, res.Optimal = r.outcome(err)
	res.Stalled = res.Reason == StopStalled
	return res, err
}

func containsVar(vars []*Var, v *Var) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

func deadlineHit(opts *Options) bool {
	//solverlint:allow nondeterminism Options.Deadline is a documented anytime stop; deadline runs are non-deterministic by contract
	return !opts.Deadline.IsZero() && time.Now().After(opts.Deadline)
}

// run is the state of one Solve or Minimize call, shared by every
// worker searching for it: the stop flag, the global counters and, when
// minimising, the incumbent.
type run struct {
	opts  Options
	st    *Store // the caller's store
	base  stats  // st's statistics on entry; parallel workers fold into st
	start time.Time

	stopped    atomic.Bool
	reason     atomic.Int32 // first StopReason to fire; -1 = none
	nodes      atomic.Int64
	backtracks atomic.Int64

	found        atomic.Bool  // an incumbent exists
	lastImproved atomic.Int64 // nodes at the last strict improvement

	mu         sync.Mutex // guards the fields below and onImproved calls
	split      *split     // first-level subtrees of a parallel run; nil when sequential
	best       int
	bestSub    int
	trace      []ObjectivePoint
	onImproved func(*Store, int)
}

// newRun validates opts and starts counting the run's effort on st.
func newRun(st *Store, opts Options) (*run, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	st.stats.maxDepth = 0 // the deepest branch is this run's
	r := &run{opts: opts, st: st, base: st.stats}
	r.reason.Store(-1)
	return r, nil
}

// stop requests a global stop, recording why if it is the first cause.
func (r *run) stop(why StopReason) {
	r.reason.CompareAndSwap(-1, int32(why))
	r.stopped.Store(true)
}

// effort returns what the run did so far.
func (r *run) effort() Effort {
	s, b := r.st.stats, r.base
	return Effort{
		Nodes:        r.nodes.Load(),
		Branches:     s.branches - b.branches,
		Backtracks:   r.backtracks.Load(),
		Propagations: s.propagations - b.propagations,
		Prunes:       s.prunes - b.prunes,
		PrunedValues: s.pruned - b.pruned,
		MaxDepth:     s.maxDepth,
	}
}

// outcome reports why the run ended and whether it exhausted the space;
// a run that failed with err did neither.
func (r *run) outcome(err error) (StopReason, bool) {
	why := r.reason.Load()
	if err != nil || why >= 0 {
		return StopReason(max(why, 0)), false
	}
	return StopExhausted, true
}

// offer submits a solution with objective obj found by w. It becomes
// the incumbent when strictly better, or equal and from the same or an
// earlier first-level subtree: the order sequential search would prefer
// it in (see parallel.go).
func (r *run) offer(w *worker, obj int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.split != nil {
		r.split.improve(w.sub, obj)
	}
	improved := !r.found.Load() || obj < r.best
	if !improved && !(obj == r.best && w.sub <= r.bestSub) {
		return
	}
	r.best, r.bestSub = obj, w.sub
	if improved {
		n := r.nodes.Load()
		r.found.Store(true)
		r.lastImproved.Store(n)
		r.trace = append(r.trace, ObjectivePoint{
			Objective: obj,
			Nodes:     n,
			//solverlint:allow nondeterminism Elapsed annotates the anytime trace for reporting; no search decision reads it
			Elapsed: time.Since(r.start),
		})
	}
	// Ties re-snapshot too: the earlier subtree's solution, or the later
	// run of the same subtree, becomes the reported one.
	if r.onImproved != nil {
		r.onImproved(w.st, obj)
	}
}

// worker runs the depth-first recursion on one store: the caller's
// store in a sequential search, its own build of the model in a
// parallel one.
type worker struct {
	r    *run
	st   *Store
	vars []*Var
	obj  *Var        // objective the branch-and-bound cut caps; nil in Solve
	leaf func() bool // called at each solution; true stops the run
	vals [][]int     // OrderValues buffers, one per depth below len(vars)

	// Branch-and-bound state of the current run (see parallel.go):
	// solutions must beat both the bound it started from and its own
	// best.
	sub     int         // first-level subtree being searched
	start   int         // incumbent objective the run started from
	runBest int         // best objective this run has found
	aborted atomic.Bool // the run's start went stale; unwind it
}

// minimizer returns a worker searching st for improvements of obj: it
// cuts every node with the branch-and-bound cap (see cut) and offers
// every improving solution to the run's incumbent.
func (r *run) minimizer(st *Store, vars []*Var, obj *Var) *worker {
	w := &worker{r: r, st: st, vars: vars, obj: obj, vals: make([][]int, len(vars)), start: math.MaxInt, runBest: math.MaxInt}
	w.leaf = func() bool {
		if val := obj.Value(); val < min(w.start, w.runBest) {
			w.runBest = val
			r.offer(w, val)
		}
		return false
	}
	return w
}

// root propagates the worker's store to its root fixpoint and searches
// below it. A contradiction at the root exhausts the run at once (for
// Minimize: infeasible, vacuously optimal); any other propagation error
// is returned.
func (w *worker) root() error {
	err := w.cut()
	if err == nil {
		err = w.st.Propagate()
	}
	if err != nil {
		if err == ErrInconsistent {
			return nil
		}
		return err
	}
	w.dfs(0)
	return nil
}

// interrupted fires the deadline and reports whether the worker must
// unwind: the run has stopped, or this worker's run was aborted.
func (w *worker) interrupted() bool {
	if deadlineHit(&w.r.opts) {
		w.r.stop(StopTimeout)
	}
	return w.r.stopped.Load() || w.aborted.Load()
}

// halted checks every stop condition, firing the first that holds.
func (w *worker) halted() bool {
	if w.interrupted() {
		return true
	}
	r := w.r
	n := r.nodes.Load()
	switch {
	case r.opts.MaxNodes > 0 && n >= r.opts.MaxNodes:
		r.stop(StopNodeLimit)
	case r.opts.StallNodes > 0 && r.found.Load() && n-r.lastImproved.Load() > r.opts.StallNodes:
		r.stop(StopStalled)
	default:
		return false
	}
	return true
}

// dfs is the search recursion behind Solve and Minimize. It returns
// true when the worker must unwind: the run stopped, or its current
// run was aborted.
func (w *worker) dfs(depth int) bool {
	if w.halted() {
		return true
	}
	v := w.r.opts.ChooseVar(w.vars)
	if v == nil {
		return w.leaf()
	}
	w.r.nodes.Add(1)
	vals := w.r.opts.OrderValues(v, w.vals[depth][:0])
	w.vals[depth] = vals
	for _, val := range vals {
		if w.interrupted() || w.branch(v, val, depth) {
			return true
		}
	}
	return false
}

// cut caps a minimizer's objective below the better of the bound its
// run started from and its own best. The cap moves only when an
// incumbent improves, so it is applied once per node, as the node is
// opened, rather than by a propagator that every change of the
// objective would wake.
func (w *worker) cut() error {
	if w.obj == nil {
		return nil
	}
	return w.st.SetMax(w.obj, min(w.start, w.runBest)-1)
}

// branch tries v = val below the current node and searches the subtree.
func (w *worker) branch(v *Var, val, depth int) bool {
	st := w.st
	st.stats.branches++
	st.stats.maxDepth = max(st.stats.maxDepth, depth)
	st.Push()
	err := w.cut()
	if err == nil {
		err = st.Assign(v, val)
	}
	if err == nil {
		err = st.Propagate()
	}
	stop := false
	if err == nil {
		stop = w.dfs(depth + 1)
	} else {
		w.r.backtracks.Add(1)
	}
	st.Pop()
	return stop
}

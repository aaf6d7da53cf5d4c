package csp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file implements MinimizeParallel. The root is propagated on
// the caller's store and its first branching variable chosen; every
// value of that variable is one first-level subtree, indexed in
// sequential visit order. Each worker goroutine builds its own store of
// the model, propagates it to the root fixpoint and searches whole
// subtrees with the ordinary recursion (worker.branch / worker.dfs),
// lowest index first.
//
// Determinism: for runs that exhaust the search space, the parallel
// path returns exactly the objective AND solution that the sequential
// path would return, for any worker count. Sequential search enters
// subtree k with the best objective of subtrees 0..k−1 as its bound,
// and from there its path depends only on that bound and its own
// improvements — but it does depend on them, because the bound prunes
// domains and dynamic heuristics (SmallestDomain, first-fail) branch on
// domain sizes. So a parallel run of subtree k starts from the same
// kind of bound: the best objective found so far in subtrees 0..k−1,
// never a later subtree's. When an earlier subtree later improves on
// the bound a run started from, that run is stale: it is aborted if
// still searching, and searched again either way. The run ends when
// every subtree has finished a run that started from its final bound,
// which is exactly the sequential bound, so every subtree has been
// searched exactly as sequential search would search it.
//
// The incumbent is accepted under a mutex with the rule
//
//	accept ⇔ obj < best  ∨  (obj = best ∧ subtree ≤ bestSubtree)
//
// i.e. ties go to the earliest subtree in sequential visit order, and
// within a subtree to its latest run, never to arrival order. The
// first subtree holding an optimal solution is the one sequential
// search takes its answer from, and its final run finds that same
// solution last. Runs cut short by Deadline/StallNodes/MaxNodes depend
// on worker interleaving and are not deterministic (same as any
// anytime stop); they report the best solution any run found.
//
// Requirements beyond the sequential path: the build function must
// make the caller's model again — the same variables with the same ids
// and domains, the same propagators in the same order — and the
// ChooseVar/OrderValues heuristics are called concurrently from all
// workers on different stores, so they must be pure functions of the
// variables handed to them. Heuristics that capture *Var pointers from
// one particular store are not safe here.

// Subtree states.
const (
	idle    uint8 = iota // needs a run
	running              // a worker is searching it
	done                 // its latest run finished
)

// subtree is the bookkeeping of one first-level value.
type subtree struct {
	best   int     // best objective any run of this subtree found
	bound  int     // best objective of the subtrees before it
	start  int     // bound when its latest run started
	state  uint8   // idle, running or done
	runner *worker // the worker searching it while running
}

// split hands the first-level subtrees of a parallel Minimize to the
// workers. Its fields are guarded by run.mu.
type split struct {
	subs    []subtree
	low     int        // no subtree below low is idle
	running int        // subtrees being searched
	wake    *sync.Cond // broadcast when a subtree finishes or reopens
}

// claim hands w the lowest idle subtree, waiting while there is none
// but another worker may still reopen one. It reports false once every
// subtree is done or the run has stopped.
func (sp *split) claim(r *run, w *worker) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.stopped.Load() {
		for ; sp.low < len(sp.subs); sp.low++ {
			if s := &sp.subs[sp.low]; s.state == idle {
				s.state, s.start, s.runner = running, s.bound, w
				sp.running++
				w.sub, w.start, w.runBest = sp.low, s.bound, math.MaxInt
				w.aborted.Store(false)
				return true
			}
		}
		if sp.running == 0 {
			return false
		}
		sp.wake.Wait()
	}
	return false
}

// finish ends w's run. The subtree is done unless the run was aborted
// or started from a bound that has since dropped.
func (sp *split) finish(r *run, w *worker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &sp.subs[w.sub]
	s.state, s.runner = done, nil
	if w.aborted.Load() || s.start != s.bound {
		sp.reopen(w.sub)
	}
	sp.running--
	sp.wake.Broadcast()
}

// improve records objective v found in subtree k and lowers the bound
// of the subtrees after it, aborting or reopening those whose latest
// run started from a higher bound.
func (sp *split) improve(k, v int) {
	if v >= sp.subs[k].best {
		return
	}
	sp.subs[k].best = v
	b := min(sp.subs[k].bound, v)
	for m := k + 1; m < len(sp.subs) && b < sp.subs[m].bound; m++ {
		s := &sp.subs[m]
		s.bound = b
		switch s.state {
		case running:
			s.runner.aborted.Store(true)
		case done:
			sp.reopen(m)
		}
		b = min(b, s.best)
	}
}

func (sp *split) reopen(k int) {
	sp.subs[k].state = idle
	sp.low = min(sp.low, k)
	sp.wake.Broadcast()
}

// MinimizeParallel is Minimize on workers goroutines. build must return
// a fresh store of the model st holds (see above); each worker calls it
// once, on its own goroutine, and searches the first-level subtrees of
// st's root on the result. onImproved is serialised but called with the
// improving worker's store, so it must read the solution through
// variable ids. Runs that exhaust the space return the same objective
// and the same final solution as Minimize. The statistics of st, its
// effort counters, propagation time and per-propagator runs, rise by
// what the workers did from their root fixpoint on; their builds are
// not counted. With workers ≤ 1 it is Minimize on st, and build is not
// called.
func MinimizeParallel(st *Store, vars []*Var, obj *Var, opts Options, onImproved func(*Store, int), build func() (*Store, error), workers int) (MinimizeResult, error) {
	if workers < 0 {
		return MinimizeResult{}, &OptionError{Field: "Workers", Value: int64(workers)}
	}
	if workers <= 1 {
		return Minimize(st, vars, obj, opts, onImproved)
	}
	return minimize(st, vars, obj, opts, onImproved, func(r *run, vars []*Var) error {
		return r.parallel(vars, obj, build, workers)
	})
}

// parallel runs the minimisation of obj over vars on n workers, one
// first-level subtree of the run's store at a time.
func (r *run) parallel(vars []*Var, obj *Var, build func() (*Store, error), n int) error {
	st := r.st
	if err := st.Propagate(); err != nil {
		if err == ErrInconsistent {
			return nil
		}
		return err
	}
	v := r.opts.ChooseVar(vars)
	if v == nil {
		// Assigned at the root: the root is the only solution.
		r.minimizer(st, vars, obj).dfs(0)
		return nil
	}
	// The root's own value list, read by every worker.
	vals := r.opts.OrderValues(v, nil)
	r.nodes.Store(1) // the root's branching node
	sp := &split{subs: make([]subtree, len(vals)), wake: sync.NewCond(&r.mu)}
	for i := range sp.subs {
		sp.subs[i].best, sp.subs[i].bound = math.MaxInt, math.MaxInt
	}
	r.split = sp
	// Resolved here, once: naming caches into the store, which the
	// workers only read.
	names := st.PropagatorNames()
	stores := make([]*Store, min(n, len(vals)))
	errs := make([]error, len(stores))
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := r.spawn(build, vars, obj, names, i+1)
			if err != nil {
				errs[i] = err
				r.abandon()
				return
			}
			stores[i] = w.st
			first := w.st.vars[v.id]
			for sp.claim(r, w) {
				w.branch(first, vals[w.sub], 0)
				sp.finish(r, w)
			}
		}(i)
	}
	wg.Wait()
	for _, ws := range stores {
		if ws != nil {
			st.fold(ws)
		}
	}
	return errors.Join(errs...)
}

// spawn builds worker id's store and brings it to where its search
// starts: the root fixpoint, with statistics counted from there on. A
// build whose variable count or propagator names (names, the caller's)
// differ is another model, and an error.
func (r *run) spawn(build func() (*Store, error), vars []*Var, obj *Var, names []string, id int) (*worker, error) {
	ws, err := build()
	if err != nil {
		return nil, fmt.Errorf("csp: worker %d build: %w", id, err)
	}
	if len(ws.vars) != len(r.st.vars) || !slices.Equal(ws.PropagatorNames(), names) {
		return nil, fmt.Errorf("csp: worker %d built another model: %d variables and %d propagators, want %d and %d",
			id, len(ws.vars), len(ws.props), len(r.st.vars), len(names))
	}
	if err := ws.Propagate(); err != nil {
		return nil, fmt.Errorf("csp: worker %d root propagation: %w", id, err)
	}
	ws.resetStats()
	ws.timing = r.st.timing
	wvars := make([]*Var, len(vars))
	for j, x := range vars {
		wvars[j] = ws.vars[x.id]
	}
	return r.minimizer(ws, wvars, ws.vars[obj.id]), nil
}

// abandon stops the run for a worker that could not start, waking the
// workers waiting in claim so they see the stop.
func (r *run) abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped.Store(true)
	r.split.wake.Broadcast()
}

package csp

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// This file implements the Options.Workers > 1 path of Minimize. The
// root is propagated on the caller's store and its first branching
// variable chosen; every value of that variable is one first-level
// subtree, indexed in sequential visit order. Each worker goroutine
// owns one Store.Clone and searches whole subtrees with the ordinary
// recursion (worker.branch / worker.dfs), lowest index first.
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
// Requirements beyond the sequential path: every propagator on the
// store must implement Clonable (otherwise a *CloneError is returned),
// and the ChooseVar/OrderValues heuristics are called concurrently from
// all workers on different stores, so they must be pure functions of
// the variables handed to them. Heuristics that capture *Var pointers
// from one particular store are not safe here.

// workerRecorder stamps every event with the worker's 1-based id before
// forwarding, so merged traces from parallel runs stay attributable.
type workerRecorder struct {
	inner  obs.Recorder
	worker int
}

// Record implements obs.Recorder.
func (w workerRecorder) Record(e obs.Event) {
	e.Worker = w.worker
	w.inner.Record(e)
}

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

// parallel runs the minimisation of obj over vars on Options.Workers
// clones of the run's store, one first-level subtree at a time.
func (r *run) parallel(vars []*Var, obj *Var) error {
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
		r.minimizer(st, vars, obj, r.opts.Recorder).dfs(0)
		return nil
	}
	vals := r.opts.OrderValues(v)
	r.nodes.Store(1) // the root's branching node
	sp := &split{subs: make([]subtree, len(vals)), wake: sync.NewCond(&r.mu)}
	for i := range sp.subs {
		sp.subs[i].best, sp.subs[i].bound = math.MaxInt, math.MaxInt
	}
	r.split = sp
	workers := make([]*worker, min(r.opts.Workers, len(vals)))
	for i := range workers {
		cl, err := st.Clone()
		if err != nil {
			return err
		}
		var rec obs.Recorder
		if r.opts.Recorder != nil {
			rec = workerRecorder{inner: r.opts.Recorder, worker: i + 1}
			cl.SetRecorder(rec)
		}
		cvars := make([]*Var, len(vars))
		for j, x := range vars {
			cvars[j] = cl.vars[x.id]
		}
		workers[i] = r.minimizer(cl, cvars, cl.vars[obj.id], rec)
		// Drain the initial scheduling of the cut so every subtree
		// starts from a clean fixpoint.
		if err := cl.Propagate(); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			first := w.st.vars[v.id]
			for sp.claim(r, w) {
				w.branch(first, vals[w.sub], 0)
				sp.finish(r, w)
			}
		}(w)
	}
	wg.Wait()
	for _, w := range workers {
		r.clonePropags += w.st.nPropag
	}
	return nil
}

package csp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// randomInstance builds a seeded random minimisation instance: n
// variables with random-width domains, a web of random binary
// constraints, minimising the maximum. Returned fresh per call so
// sequential and parallel runs never share a store.
func randomInstance(seed int64, n int) (*Store, []*Var, *Var) {
	rng := rand.New(rand.NewSource(seed))
	st := NewStore()
	vars := make([]*Var, n)
	for i := range vars {
		lo := rng.Intn(4)
		vars[i] = st.NewVarRange("x", lo, lo+3+rng.Intn(2*n))
	}
	if rng.Intn(2) == 0 {
		pairwiseDifferent(st, vars...)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				NotEqualOffset(st, vars[i], vars[j], rng.Intn(3)-1)
			case 1:
				LessEqOffset(st, vars[i], vars[j], rng.Intn(2))
			}
		}
	}
	obj := st.NewVarRange("obj", 0, 4+2*n+4)
	maxOf(st, obj, vars...)
	return st, vars, obj
}

// rebuild returns a build function for MinimizeParallel that makes the
// model again.
func rebuild(model func() (*Store, []*Var, *Var)) func() (*Store, error) {
	return func() (*Store, error) {
		st, _, _ := model()
		return st, nil
	}
}

// TestParallelMatchesSequential is the determinism property test: over
// a seeded matrix of random instances and worker counts {2, 4, 8}, an
// exhaustive MinimizeParallel run returns the identical objective and
// the identical final assignment as the sequential Minimize run. The
// instances branch first-fail on variables whose domains the objective
// bound prunes, so a worker that searched a subtree from any bound but
// the sequential one would drift to another optimal assignment. Run it
// under -race.
func TestParallelMatchesSequential(t *testing.T) {
	snapshot := func(s *Store, nVars int) []int {
		vals := make([]int, nVars)
		for i := 0; i < nVars; i++ {
			vals[i] = s.Vars()[i].Value()
		}
		return vals
	}
	for seed := int64(1); seed <= 100; seed++ {
		n := 4 + int(seed)%4
		st, vars, obj := randomInstance(seed, n)
		var seqSol []int
		seq, err := Minimize(st, vars, obj, Options{}, func(s *Store, _ int) {
			seqSol = snapshot(s, len(vars))
		})
		if err != nil {
			t.Fatalf("seed %d: Minimize: %v", seed, err)
		}
		if !seq.Optimal {
			t.Fatalf("seed %d: sequential run not exhaustive", seed)
		}
		model := func() (*Store, []*Var, *Var) { return randomInstance(seed, n) }
		for _, workers := range []int{2, 4, 8} {
			pst, pvars, pobj := model()
			var parSol []int
			par, err := MinimizeParallel(pst, pvars, pobj, Options{}, func(s *Store, _ int) {
				parSol = snapshot(s, len(pvars))
			}, rebuild(model), workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: Minimize: %v", seed, workers, err)
			}
			if par.Found != seq.Found {
				t.Fatalf("seed %d workers %d: Found %v, sequential %v", seed, workers, par.Found, seq.Found)
			}
			if !par.Optimal {
				t.Fatalf("seed %d workers %d: parallel run not exhaustive (reason %v)", seed, workers, par.Reason)
			}
			if seq.Found && par.Best != seq.Best {
				t.Fatalf("seed %d workers %d: objective %d, sequential %d", seed, workers, par.Best, seq.Best)
			}
			if len(parSol) != len(seqSol) {
				t.Fatalf("seed %d workers %d: solution snapshots differ in length", seed, workers)
			}
			for i := range seqSol {
				if parSol[i] != seqSol[i] {
					t.Fatalf("seed %d workers %d: assignment differs at var %d: %v vs %v",
						seed, workers, i, parSol, seqSol)
				}
			}
		}
	}
}

// sleepProp is a propagator that only burns time. The runs it makes on
// a store that times propagation, the caller's store and a worker's
// from its root fixpoint on, are added to runs and what they slept to
// slept; a worker's build times nothing, so its root runs are left out.
type sleepProp struct{ runs, slept *atomic.Int64 }

func (p sleepProp) Name() string { return "test.sleep" }
func (p sleepProp) Propagate(st *Store) error {
	start := time.Now()
	time.Sleep(20 * time.Microsecond)
	if st.timing {
		p.runs.Add(1)
		p.slept.Add(int64(time.Since(start)))
	}
	return nil
}

// TestParallelFold checks that a parallel Minimize folds its workers'
// statistics into the caller's store, counting only what each worker
// did after its root fixpoint: the store's effort counters rise by
// exactly the run's, its per-propagator runs include the
// sleep propagator's runs exactly as counted on timed stores (a
// worker's build runs it untimed), and its propagation time covers the
// time those runs slept.
func TestParallelFold(t *testing.T) {
	var runs, slept atomic.Int64
	model := func() (*Store, []*Var, *Var) {
		st, vars, obj := randomInstance(3, 5)
		st.Post(sleepProp{&runs, &slept}, append(vars, obj)...)
		return st, vars, obj
	}
	st, vars, obj := model()
	st.EnableTiming(true)
	before := st.stats
	res, err := MinimizeParallel(st, vars, obj, Options{}, nil, rebuild(model), 2)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	s := st.stats
	rose := Effort{Nodes: res.Nodes, Branches: s.branches - before.branches, Backtracks: res.Backtracks,
		Propagations: s.propagations - before.propagations, Prunes: s.prunes - before.prunes,
		PrunedValues: s.pruned - before.pruned, Solutions: s.solutions - before.solutions, MaxDepth: s.maxDepth}
	if rose != res.Effort {
		t.Fatalf("store counters rose by %+v, run reports %+v", rose, res.Effort)
	}
	if res.Branches <= res.Backtracks || res.Prunes == 0 || res.MaxDepth == 0 {
		t.Fatalf("workers' branches and prunes not folded: %+v", res.Effort)
	}
	byName := map[string]int64{}
	var total int64
	for _, s := range st.PropagatorStats() {
		byName[s.Name] = s.Runs
		total += s.Runs
	}
	if total != st.stats.propagations {
		t.Fatalf("per-propagator runs sum to %d, store counts %d", total, st.stats.propagations)
	}
	if byName["test.sleep"] != runs.Load() || runs.Load() < 10 {
		t.Fatalf("sleep propagator folded %d runs, %d ran on timed stores (want ≥ 10 and equal)", byName["test.sleep"], runs.Load())
	}
	if st.PropagationTime() < time.Duration(slept.Load()) {
		t.Fatalf("propagation time %v < %v slept in %d runs", st.PropagationTime(), time.Duration(slept.Load()), runs.Load())
	}
}

// TestParallelWorkerEvents checks that a four-worker run's search
// events are its workers': each improvement is reported on the store of
// the worker that found it, never on the caller's, and the branches the
// workers made reach the run's effort. A tie from an earlier subtree is
// reported too (it becomes the kept solution) but is no improvement of
// the trace, so only strictly better reports are counted against it.
func TestParallelWorkerEvents(t *testing.T) {
	model := func() (*Store, []*Var, *Var) { return randomInstance(3, 5) }
	st, vars, obj := model()
	improved, onCaller, last := 0, 0, 0
	workerStores := map[*Store]bool{}
	onImproved := func(s *Store, v int) {
		if improved == 0 || v < last {
			improved++
		}
		last = v
		if s == st {
			onCaller++
		} else {
			workerStores[s] = true
		}
	}
	res, err := MinimizeParallel(st, vars, obj, Options{}, onImproved, rebuild(model), 4)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Optimal {
		t.Fatalf("run not exhaustive: %v", res.Reason)
	}
	if res.Branches == 0 || res.Nodes <= 1 {
		t.Fatalf("no search effort recorded: %+v", res.Effort)
	}
	if improved == 0 || improved != len(res.BestObjectiveTrace) {
		t.Fatalf("onImproved called %d times, run traces %d improvements", improved, len(res.BestObjectiveTrace))
	}
	if onCaller != 0 || len(workerStores) == 0 {
		t.Fatalf("%d improvements reported on the caller's store, %d worker stores seen", onCaller, len(workerStores))
	}
}

// TestParallelStallNodes checks StallNodes measures progress of the
// global incumbent: with a generous stall budget and a tiny space the
// run completes; with a tiny budget on a large space it stops stalled.
func TestParallelStallNodes(t *testing.T) {
	model := func() (*Store, []*Var, *Var) { return allDifferentMax(9, 11) }
	st, vars, obj := model()
	res, err := MinimizeParallel(st, vars, obj, Options{StallNodes: 40}, nil, rebuild(model), 4)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Found {
		t.Fatal("no solution found before stalling")
	}
	if res.Reason == StopExhausted {
		t.Skip("instance too easy to exercise stalling")
	}
	if !res.Stalled || res.Reason != StopStalled {
		t.Fatalf("want stalled stop, got %+v", res)
	}
}

// TestParallelMaxNodes checks the global node budget stops the run
// with StopNodeLimit.
func TestParallelMaxNodes(t *testing.T) {
	model := func() (*Store, []*Var, *Var) { return allDifferentMax(10, 14) }
	st, vars, obj := model()
	res, err := MinimizeParallel(st, vars, obj, Options{MaxNodes: 200}, nil, rebuild(model), 4)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res.Reason != StopNodeLimit {
		t.Fatalf("reason %v, want node-limit", res.Reason)
	}
	if res.Optimal {
		t.Fatal("node-limited run must not claim optimality")
	}
}

// allDifferentMax builds n pairwise-different variables over 0..top,
// minimising their maximum.
func allDifferentMax(n, top int) (*Store, []*Var, *Var) {
	st := NewStore()
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, top)
	}
	pairwiseDifferent(st, vars...)
	obj := st.NewVarRange("obj", 0, top)
	maxOf(st, obj, vars...)
	return st, vars, obj
}

// TestParallelFuncProp checks that a model posting an ad-hoc FuncProp
// closure solves in parallel: each worker's build posts its own
// closure over its own variables, and every worker count returns the
// sequential objective and assignment.
func TestParallelFuncProp(t *testing.T) {
	model := func() (*Store, []*Var, *Var) {
		st := NewStore()
		x := st.NewVarRange("x", 0, 5)
		y := st.NewVarRange("y", 0, 5)
		z := st.NewVarRange("z", 0, 5)
		st.Post(FuncProp(func(s *Store) error {
			if err := s.Remove(x, 0); err != nil {
				return err
			}
			return s.Remove(z, 2)
		}), x, z)
		LessEqOffset(st, x, y, 1)
		LessEqOffset(st, z, y, 0)
		NotEqual(st, x, z)
		return st, []*Var{x, y, z}, y
	}
	solve := func(workers int) (MinimizeResult, []int) {
		st, vars, obj := model()
		var sol []int
		res, err := MinimizeParallel(st, vars, obj, Options{}, func(s *Store, _ int) {
			sol = sol[:0]
			for _, v := range vars {
				sol = append(sol, s.Vars()[v.ID()].Value())
			}
		}, rebuild(model), workers)
		if err != nil || !res.Found || !res.Optimal {
			t.Fatalf("workers %d: %+v, %v", workers, res, err)
		}
		return res, sol
	}
	seq, seqSol := solve(1)
	if seq.Best != 2 {
		t.Fatalf("sequential best %d, want 2", seq.Best)
	}
	for _, workers := range []int{2, 4} {
		par, parSol := solve(workers)
		if par.Best != seq.Best || fmt.Sprint(parSol) != fmt.Sprint(seqSol) {
			t.Fatalf("workers %d: best %d at %v, sequential %d at %v", workers, par.Best, parSol, seq.Best, seqSol)
		}
	}
}

// TestParallelBuildMismatch checks that a build function making a
// different model, in its variables or in its propagators, is an
// error, not a search of the wrong model.
func TestParallelBuildMismatch(t *testing.T) {
	others := map[string]func() (*Store, error){
		"variables": func() (*Store, error) {
			st, _, _ := allDifferentMax(4, 6)
			return st, nil
		},
		"propagators": func() (*Store, error) {
			st, vars, _ := allDifferentMax(5, 6)
			LessEq(st, vars[0], vars[1])
			return st, nil
		},
	}
	for name, other := range others {
		st, vars, obj := allDifferentMax(5, 6)
		if _, err := MinimizeParallel(st, vars, obj, Options{}, nil, other, 2); err == nil {
			t.Fatalf("a build with other %s was searched", name)
		}
	}
}

// TestOptionsValidation checks negative option values surface as typed
// *OptionError from every entry point instead of being silently
// accepted.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		field string
		opts  Options
	}{
		{"StallNodes", Options{StallNodes: -1}},
		{"MaxNodes", Options{MaxNodes: -7}},
	}
	for _, tc := range cases {
		st := NewStore()
		x := st.NewVarRange("x", 0, 3)
		y := st.NewVarRange("y", 0, 3)
		vars := []*Var{x, y}

		check := func(entry string, err error) {
			t.Helper()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("%s with bad %s: want *OptionError, got %v", entry, tc.field, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("%s: OptionError names %q, want %q", entry, oe.Field, tc.field)
			}
		}
		_, err := Solve(st, vars, tc.opts, func(*Store) bool { return true })
		check("Solve", err)
		_, err = Minimize(st, vars, y, tc.opts, nil)
		check("Minimize", err)
		_, err = MinimizeParallel(st, vars, y, tc.opts, nil, nil, 2)
		check("MinimizeParallel", err)
	}
	st, vars, obj := allDifferentMax(2, 3)
	_, err := MinimizeParallel(st, vars, obj, Options{}, nil, nil, -1)
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Workers" {
		t.Fatalf("MinimizeParallel with -1 workers: want *OptionError on Workers, got %v", err)
	}
}

// TestMaxNodesSequential checks the node budget on the sequential
// entry points.
func TestMaxNodesSequential(t *testing.T) {
	st, vars, obj := allDifferentMax(10, 14)
	res, err := Minimize(st, vars, obj, Options{MaxNodes: 100}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res.Reason != StopNodeLimit || res.Nodes > 101 {
		t.Fatalf("want node-limit stop near 100 nodes, got reason %v after %d nodes", res.Reason, res.Nodes)
	}
	st2, vars2, _ := allDifferentMax(10, 14)
	sres, err := Solve(st2, vars2, Options{MaxNodes: 100}, func(*Store) bool { return true })
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sres.Reason != StopNodeLimit || sres.Complete {
		t.Fatalf("want node-limit stop, got %+v", sres)
	}
}

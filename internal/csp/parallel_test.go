package csp

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
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
		AllDifferent(st, vars...)
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
	MaxOf(st, obj, vars...)
	return st, vars, obj
}

// TestParallelMatchesSequential is the determinism property test: over
// a seeded matrix of random instances and worker counts {2, 4, 8}, an
// exhaustive Minimize run on clones returns the identical objective
// and the identical final assignment as the Workers: 1 run on the
// caller's store. The instances branch first-fail on variables whose
// domains the objective bound prunes, so a worker that searched a
// subtree from any bound but the sequential one would drift to another
// optimal assignment. Run it under -race.
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
		seq, err := Minimize(st, vars, obj, Options{Workers: 1}, func(s *Store, _ int) {
			seqSol = snapshot(s, len(vars))
		})
		if err != nil {
			t.Fatalf("seed %d: Minimize: %v", seed, err)
		}
		if !seq.Optimal {
			t.Fatalf("seed %d: sequential run not exhaustive", seed)
		}
		for _, workers := range []int{2, 4, 8} {
			pst, pvars, pobj := randomInstance(seed, n)
			var parSol []int
			par, err := Minimize(pst, pvars, pobj, Options{Workers: workers}, func(s *Store, _ int) {
				parSol = snapshot(s, len(pvars))
			})
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

// eventCollector is a mutex-protected recorder for assertions on the
// merged event stream of a parallel run.
type eventCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *eventCollector) Record(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestParallelWorkerEvents checks every branch/backtrack/incumbent
// event from worker goroutines carries a worker attribution.
func TestParallelWorkerEvents(t *testing.T) {
	st, vars, obj := randomInstance(3, 5)
	var col eventCollector
	res, err := Minimize(st, vars, obj, Options{Workers: 4, Recorder: &col}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Optimal {
		t.Fatalf("run not exhaustive: %v", res.Reason)
	}
	branches, tagged := 0, 0
	for _, e := range col.events {
		switch e.Kind {
		case obs.KindBranch, obs.KindBacktrack, obs.KindIncumbent:
			branches++
			if e.Worker >= 1 {
				tagged++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no search events recorded")
	}
	if tagged == 0 {
		t.Fatal("no event carries a worker attribution")
	}
}

// TestParallelStallNodes checks StallNodes measures progress of the
// global incumbent: with a generous stall budget and a tiny space the
// run completes; with a tiny budget on a large space it stops stalled.
func TestParallelStallNodes(t *testing.T) {
	st := NewStore()
	vars := make([]*Var, 9)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, 11)
	}
	AllDifferent(st, vars...)
	obj := st.NewVarRange("obj", 0, 11)
	MaxOf(st, obj, vars...)
	res, err := Minimize(st, vars, obj, Options{Workers: 4, StallNodes: 40}, nil)
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
	st := NewStore()
	vars := make([]*Var, 10)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, 14)
	}
	AllDifferent(st, vars...)
	obj := st.NewVarRange("obj", 0, 14)
	MaxOf(st, obj, vars...)
	res, err := Minimize(st, vars, obj, Options{Workers: 4, MaxNodes: 200}, nil)
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

// TestParallelRejectsFuncProp checks the unclonable-store error path
// of Minimize with Workers > 1, and that Workers: 1 still solves the
// same model on the caller's store.
func TestParallelRejectsFuncProp(t *testing.T) {
	build := func() (*Store, []*Var, *Var) {
		st := NewStore()
		x := st.NewVarRange("x", 0, 5)
		y := st.NewVarRange("y", 0, 5)
		st.Post(FuncProp(func(s *Store) error { return s.Remove(x, 3) }), x)
		LessEqOffset(st, x, y, 1)
		return st, []*Var{x, y}, y
	}
	st, vars, obj := build()
	_, err := Minimize(st, vars, obj, Options{Workers: 2}, nil)
	var ce *CloneError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CloneError, got %v", err)
	}
	st, vars, obj = build()
	res, err := Minimize(st, vars, obj, Options{Workers: 1}, nil)
	if err != nil || !res.Found || !res.Optimal || res.Best != 1 {
		t.Fatalf("Workers: 1 on a FuncProp model: %+v, %v", res, err)
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
		{"MaxSolutions", Options{MaxSolutions: -2}},
		{"Workers", Options{Workers: -1}},
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
	}
}

// TestMaxNodesSequential checks the node budget on the sequential
// entry points.
func TestMaxNodesSequential(t *testing.T) {
	build := func() (*Store, []*Var, *Var) {
		st := NewStore()
		vars := make([]*Var, 10)
		for i := range vars {
			vars[i] = st.NewVarRange("v", 0, 14)
		}
		AllDifferent(st, vars...)
		obj := st.NewVarRange("obj", 0, 14)
		MaxOf(st, obj, vars...)
		return st, vars, obj
	}
	st, vars, obj := build()
	res, err := Minimize(st, vars, obj, Options{MaxNodes: 100}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res.Reason != StopNodeLimit || res.Nodes > 101 {
		t.Fatalf("want node-limit stop near 100 nodes, got reason %v after %d nodes", res.Reason, res.Nodes)
	}
	st2, vars2, _ := build()
	sres, err := Solve(st2, vars2, Options{MaxNodes: 100}, func(*Store) bool { return true })
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sres.Reason != StopNodeLimit || sres.Complete {
		t.Fatalf("want node-limit stop, got %+v", sres)
	}
}

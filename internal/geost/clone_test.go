package geost

import (
	"testing"

	"repro/internal/csp"
)

// buildCloneKernel models a small placement problem touching every
// geost propagator: top links, pairwise non-overlap, compulsory-part
// pruning and the capacity height bound.
func buildCloneKernel(t *testing.T) (*csp.Store, *Kernel, *csp.Var) {
	t.Helper()
	st := csp.NewStore()
	k := New(st, 4, 4)
	shapes := [][]ShapeGeom{
		{rectGeom(2, 2, 4, 4), rectGeom(1, 4, 4, 4)},
		{rectGeom(2, 1, 4, 4)},
		{rectGeom(1, 2, 4, 4), rectGeom(2, 1, 4, 4)},
	}
	for i, s := range shapes {
		if _, err := k.AddObject(string(rune('a'+i)), s); err != nil {
			t.Fatal(err)
		}
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	height := k.PostHeightObjective(uniformCapPrefix(4, 4))
	if err := st.Propagate(); err != nil {
		t.Fatalf("root propagation: %v", err)
	}
	return st, k, height
}

// TestKernelCloneIndependence checks a cloned geost store shares no
// mutable state with its source: divergent propagation on one leaves
// the other's domains bit-for-bit unchanged, and both solve to the
// same optimum.
func TestKernelCloneIndependence(t *testing.T) {
	st, k, height := buildCloneKernel(t)
	cl, err := st.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}

	snapshot := func(s *csp.Store) [][]int {
		out := make([][]int, len(s.Vars()))
		for i, v := range s.Vars() {
			out[i] = v.Domain().Values()
		}
		return out
	}
	equal := func(a, b [][]int) bool {
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}

	if !equal(snapshot(st), snapshot(cl)) {
		t.Fatal("clone differs from source immediately after Clone")
	}

	// Assign an object on the clone; the source must not move. This
	// drives nonOverlapPair through the clone's scratch bitmap, which
	// must be the clone's own.
	before := snapshot(st)
	place := k.Objects()[0].Place
	clPlace := cl.Vars()[place.ID()]
	cl.Push()
	if err := cl.Assign(clPlace, clPlace.Min()); err != nil {
		t.Fatalf("assign on clone: %v", err)
	}
	if err := cl.Propagate(); err != nil {
		t.Fatalf("propagate on clone: %v", err)
	}
	if !equal(before, snapshot(st)) {
		t.Fatal("propagation on the clone mutated the source store")
	}
	cl.Pop()

	// Both minimise to the same height.
	solve := func(s *csp.Store) (bool, int) {
		vars := make([]*csp.Var, len(k.Objects()))
		for i, o := range k.Objects() {
			vars[i] = s.Vars()[o.Place.ID()]
		}
		obj := s.Vars()[height.ID()]
		res, err := csp.Minimize(s, vars, obj, csp.Options{}, nil)
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		return res.Found, res.Best
	}
	f1, b1 := solve(st)
	f2, b2 := solve(cl)
	if f1 != f2 || b1 != b2 {
		t.Fatalf("source solved to (%v, %d), clone to (%v, %d)", f1, b1, f2, b2)
	}
}

// TestKernelParallelMinimize runs the full geost model through
// Minimize at Workers 2, 4 and 8 and checks each exhaustive run returns
// the objective and placement of the Workers: 1 run.
func TestKernelParallelMinimize(t *testing.T) {
	solve := func(workers int) (csp.MinimizeResult, []int) {
		st, k, height := buildCloneKernel(t)
		var sol []int
		res, err := csp.Minimize(st, k.PlaceVars(), height, csp.Options{Workers: workers}, func(s *csp.Store, _ int) {
			sol = sol[:0]
			for _, o := range k.Objects() {
				sol = append(sol, s.Vars()[o.Place.ID()].Value())
			}
		})
		if err != nil {
			t.Fatalf("workers %d: Minimize: %v", workers, err)
		}
		if !res.Found || !res.Optimal {
			t.Fatalf("workers %d: not solved to optimality: %+v", workers, res)
		}
		return res, sol
	}
	seq, seqSol := solve(1)
	for _, workers := range []int{2, 4, 8} {
		par, parSol := solve(workers)
		if par.Best != seq.Best {
			t.Fatalf("workers %d: best %d, Workers: 1 best %d", workers, par.Best, seq.Best)
		}
		for i := range seqSol {
			if parSol[i] != seqSol[i] {
				t.Fatalf("workers %d: placement %v, Workers: 1 placement %v", workers, parSol, seqSol)
			}
		}
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/workload"
)

// TestPlacerParallelMatchesSequential checks the core-level contract
// of Options.Workers: exhaustive solves at Workers 2, 4 and 8 return
// the same height AND the identical placement as Workers: 1, for every
// strategy. This is the end-to-end counterpart of the csp-level
// TestParallelMatchesSequential, driving the full geost model (one
// build per worker, positional heuristics, id-based snapshots) through
// worker goroutines; run it under -race.
func TestPlacerParallelMatchesSequential(t *testing.T) {
	r := fabric.Homogeneous(6, 10).FullRegion()
	mods := []*module.Module{
		rectModule("a", 3, 2),
		barModule("b", 4),
		rectModule("c", 2, 3),
		barModule("d", 3),
	}
	for _, strategy := range []Strategy{StrategyFirstFail, StrategyLargestFirst, StrategyInputOrder} {
		seq, err := New(r, Options{Strategy: strategy, Workers: 1}).Place(mods)
		if err != nil {
			t.Fatalf("%v sequential: %v", strategy, err)
		}
		if !seq.Found || !seq.Optimal {
			t.Fatalf("%v sequential did not close the instance: %+v", strategy, seq)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := New(r, Options{Strategy: strategy, Workers: workers}).Place(mods)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strategy, workers, err)
			}
			if !par.Found || !par.Optimal {
				t.Fatalf("%v workers=%d did not close the instance: reason %v", strategy, workers, par.Reason)
			}
			if par.Height != seq.Height {
				t.Fatalf("%v workers=%d: height %d, sequential %d", strategy, workers, par.Height, seq.Height)
			}
			if err := par.Validate(r); err != nil {
				t.Fatalf("%v workers=%d: invalid placement: %v", strategy, workers, err)
			}
			if len(par.Placements) != len(seq.Placements) {
				t.Fatalf("%v workers=%d: placement count mismatch", strategy, workers)
			}
			for i := range seq.Placements {
				if par.Placements[i].At != seq.Placements[i].At ||
					par.Placements[i].ShapeIndex != seq.Placements[i].ShapeIndex {
					t.Fatalf("%v workers=%d: module %s placed at %v shape %d, sequential %v shape %d",
						strategy, workers, seq.Placements[i].Module.Name(),
						par.Placements[i].At, par.Placements[i].ShapeIndex,
						seq.Placements[i].At, seq.Placements[i].ShapeIndex)
				}
			}
		}
	}
}

// TestPlacerParallelFirstSolutionDeterministic checks first-solution
// mode is deterministic: it always runs the sequential dive, so
// Workers: 4 returns byte-identical placements to Workers: 0.
func TestPlacerParallelFirstSolutionDeterministic(t *testing.T) {
	r := fabric.Homogeneous(6, 10).FullRegion()
	mods := []*module.Module{
		rectModule("a", 3, 2), rectModule("b", 2, 4), rectModule("c", 4, 2),
	}
	var bodies [2][]byte
	for i, workers := range []int{0, 4} {
		res, err := New(r, Options{FirstSolutionOnly: true, Workers: workers}).Place(mods)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Optimal {
			t.Fatalf("workers=%d: found %v optimal %v, want a non-optimal placement", workers, res.Found, res.Optimal)
		}
		if err := res.Validate(r); err != nil {
			t.Fatal(err)
		}
		bodies[i] = fmt.Appendf(nil, "height %d", res.Height)
		for _, p := range res.Placements {
			bodies[i] = fmt.Appendf(bodies[i], " %s:%d@%v", p.Module.Name(), p.ShapeIndex, p.At)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("Workers: 4 placed %s, Workers: 0 placed %s", bodies[1], bodies[0])
	}
}

// TestPlacerParallelStalled checks stop-reason plumbing end to end:
// a stalled parallel solve reports Stalled with a valid incumbent.
func TestPlacerParallelStalled(t *testing.T) {
	r := fabric.Homogeneous(8, 24).FullRegion()
	var mods []*module.Module
	for i := 0; i < 7; i++ {
		mods = append(mods, rectModule(string(rune('a'+i)), 2+i%3, 2+(i+1)%2))
	}
	res, err := New(r, Options{StallNodes: 100, Workers: 4}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no placement before stalling")
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		// The instance may close before the stall budget; that is fine,
		// but then the reason must say so.
		if res.Stalled {
			t.Fatal("both Optimal and Stalled set")
		}
	}
}

// TestParallelBuildDeterministic is the guard that parallel workers
// search the caller's model: two builds of the Table-I seed-1 instance,
// with presolve and the warm clip, give identical variables and
// domains, the same propagator names in the same order, the same
// presolve outcome and warm placement, and the same root fixpoint.
func TestParallelBuildDeterministic(t *testing.T) {
	dev, err := fabric.ByName("virtex4-like-72x60") // the Table-I device
	if err != nil {
		t.Fatal(err)
	}
	mods := workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1)))
	p := New(dev.FullRegion(), Options{})
	domains := func(st *csp.Store) []string {
		var out []string
		for _, v := range st.Vars() {
			out = append(out, fmt.Sprint(v.Name(), v.Domain().AppendValues(nil)))
		}
		return out
	}
	var builds [2]*model
	for i := range builds {
		m, err := p.build(mods, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.infeasible || m.presolve == nil || m.warm == nil {
			t.Fatalf("build %d: infeasible %v, presolve %v, warm start %v; want a presolved, warm-clipped model",
				i, m.infeasible, m.presolve, m.warm != nil)
		}
		builds[i] = m
	}
	a, b := builds[0], builds[1]
	if da, db := domains(a.st), domains(b.st); !slices.Equal(da, db) {
		t.Fatal("builds differ in their variables or domains")
	}
	if na, nb := a.st.PropagatorNames(), b.st.PropagatorNames(); !slices.Equal(na, nb) {
		t.Fatalf("builds differ in their propagators:\n%v\n%v", na, nb)
	}
	if *a.presolve != *b.presolve || fmt.Sprint(a.warm) != fmt.Sprint(b.warm) {
		t.Fatalf("builds differ in presolve: %+v warm %v, %+v warm %v", *a.presolve, a.warm, *b.presolve, b.warm)
	}
	for _, m := range builds {
		if err := m.st.Propagate(); err != nil {
			t.Fatalf("root propagation: %v", err)
		}
	}
	if da, db := domains(a.st), domains(b.st); !slices.Equal(da, db) {
		t.Fatal("builds reach different root fixpoints")
	}
}

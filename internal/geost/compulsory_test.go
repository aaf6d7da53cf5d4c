package geost

import (
	"testing"

	"repro/internal/csp"
	"repro/internal/grid"
)

func TestCompulsoryRegionExact(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 5, 5)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(3, 3, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	// Restrict anchors to (0,0) and (1,1): footprints (0..2)² and
	// (1..3)² intersect in (1..2)².
	if err := st.FilterDomain(o.Place, func(v int) bool {
		_, x, y := o.Decode(v)
		return (x == 0 && y == 0) || (x == 1 && y == 1)
	}); err != nil {
		t.Fatal(err)
	}
	comp := compulsoryRegion(o)
	if comp == nil {
		t.Fatal("no compulsory region")
	}
	if comp.Count() != 4 {
		t.Fatalf("compulsory count = %d, want 4\n%s", comp.Count(), comp)
	}
	for _, p := range []grid.Point{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 2}} {
		if !comp.Get(p.X, p.Y) {
			t.Fatalf("cell %v missing from compulsory region", p)
		}
	}
}

func TestCompulsoryRegionEmptyOrLarge(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 8, 8)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(2, 2, 8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// 49 candidates > threshold: skipped.
	if comp := compulsoryRegion(o); comp != nil {
		t.Fatal("large domain should skip compulsory computation")
	}
	// Two far-apart candidates: empty intersection.
	if err := st.FilterDomain(o.Place, func(v int) bool {
		_, x, y := o.Decode(v)
		return (x == 0 && y == 0) || (x == 6 && y == 6)
	}); err != nil {
		t.Fatal(err)
	}
	if comp := compulsoryRegion(o); comp != nil {
		t.Fatal("disjoint candidates should have no compulsory region")
	}
}

func TestCompulsoryPrunesBeforeAssignment(t *testing.T) {
	// Object a is a 3x3 block restricted to two overlapping anchors;
	// its compulsory 2x2 centre must already prune b's placements even
	// though a is not assigned.
	st := csp.NewStore()
	k := New(st, 5, 5)
	a, err := k.AddObject("a", []ShapeGeom{rectGeom(3, 3, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.AddObject("b", []ShapeGeom{rectGeom(2, 2, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	before := b.CandidateCount()
	if err := st.FilterDomain(a.Place, func(v int) bool {
		_, x, y := a.Decode(v)
		return (x == 0 && y == 0) || (x == 1 && y == 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if a.Assigned() {
		t.Fatal("test premise broken: a assigned")
	}
	if b.CandidateCount() >= before {
		t.Fatalf("no compulsory pruning: %d >= %d", b.CandidateCount(), before)
	}
	// b anchors overlapping the compulsory square (1..2)² are gone.
	b.Place.Domain().ForEach(func(val int) bool {
		_, x, y := b.Decode(val)
		if grid.RectXYWH(x, y, 2, 2).Overlaps(grid.RectXYWH(1, 1, 2, 2)) {
			t.Fatalf("placement (%d,%d) overlaps compulsory region", x, y)
		}
		return true
	})
}

func TestCompulsorySameOptimaAsPlainNonOverlap(t *testing.T) {
	// Minimised height must be identical with and without the extra
	// pruning: it only removes provably infeasible placements.
	solve := func(compulsory bool) int {
		st := csp.NewStore()
		k := New(st, 4, 6)
		for i := 0; i < 3; i++ {
			if _, err := k.AddObject(string(rune('a'+i)), []ShapeGeom{rectGeom(2, 2, 4, 6)}); err != nil {
				t.Fatal(err)
			}
		}
		k.PostNonOverlap()
		if compulsory {
			k.PostCompulsoryNonOverlap()
		}
		height := k.PostHeightObjective(uniformCapPrefix(4, 6))
		res, err := csp.Minimize(st, k.PlaceVars(), height, csp.Options{}, nil)
		if err != nil || !res.Found || !res.Optimal {
			t.Fatalf("minimize: %v %+v", err, res)
		}
		return res.Best
	}
	if with, without := solve(true), solve(false); with != without {
		t.Fatalf("compulsory pruning changed the optimum: %d vs %d", with, without)
	}
}

package geost

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

// allValid returns a bitmap accepting every anchor.
// CandidateCount returns the number of remaining placements.
func (o *Object) CandidateCount() int { return o.Place.Size() }

func allValid(w, h int) *grid.Bitmap {
	b := grid.NewBitmap(w, h)
	b.SetRect(grid.RectXYWH(0, 0, w, h), true)
	return b
}

// rectGeom builds a full w×h rectangle of CLB tiles valid everywhere in
// a spaceW×spaceH space.
func rectGeom(w, h, spaceW, spaceH int) ShapeGeom {
	var pts []grid.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, grid.Pt(x, y))
		}
	}
	var hist fabric.Histogram
	hist[fabric.CLB] = len(pts)
	return ShapeGeom{Points: pts, W: w, H: h, Valid: allValid(spaceW, spaceH), Hist: hist}
}

// uniformCapPrefix returns capPrefix for a homogeneous CLB space.
func uniformCapPrefix(w, h int) []fabric.Histogram {
	out := make([]fabric.Histogram, h+1)
	for i := 1; i <= h; i++ {
		out[i][fabric.CLB] = w * i
	}
	return out
}

func TestAddObjectDomainSize(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 4, 3)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(2, 2, 4, 3)})
	if err != nil {
		t.Fatal(err)
	}
	// Anchors: x in 0..2, y in 0..1 -> 6 placements.
	if o.CandidateCount() != 6 {
		t.Fatalf("candidates = %d, want 6", o.CandidateCount())
	}
	height := k.PostHeightObjective(uniformCapPrefix(4, 3))
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if height.Min() != 2 || height.Max() != 3 {
		t.Fatalf("height = [%d,%d], want [2,3]", height.Min(), height.Max())
	}
}

func TestAddObjectPolymorphic(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 3, 3)
	o, err := k.AddObject("a", []ShapeGeom{
		rectGeom(1, 2, 3, 3), // 3 x-positions × 2 y-positions = 6
		rectGeom(2, 1, 3, 3), // 2 x-positions × 3 y-positions = 6
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.CandidateCount() != 12 {
		t.Fatalf("candidates = %d, want 12", o.CandidateCount())
	}
	if !o.ShapePresent(0) || !o.ShapePresent(1) {
		t.Fatal("shapes not present")
	}
}

func TestAddObjectValidMaskRestricts(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 4, 4)
	g := rectGeom(2, 2, 4, 4)
	g.Valid = grid.NewBitmap(4, 4)
	g.Valid.Set(1, 2, true)
	g.Valid.Set(2, 2, true)
	o, err := k.AddObject("a", []ShapeGeom{g})
	if err != nil {
		t.Fatal(err)
	}
	if o.CandidateCount() != 2 {
		t.Fatalf("candidates = %d, want 2", o.CandidateCount())
	}
}

func TestAddObjectErrors(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 4, 4)
	if _, err := k.AddObject("none", nil); err == nil {
		t.Error("no shapes accepted")
	}
	// Shape larger than the space: no feasible placement.
	if _, err := k.AddObject("big", []ShapeGeom{rectGeom(5, 5, 4, 4)}); err == nil {
		t.Error("oversized shape accepted")
	}
	// Empty valid mask.
	g := rectGeom(2, 2, 4, 4)
	g.Valid = grid.NewBitmap(4, 4)
	if _, err := k.AddObject("masked", []ShapeGeom{g}); err == nil {
		t.Error("fully masked shape accepted")
	}
	// Mismatched mask dimensions.
	g2 := rectGeom(2, 2, 4, 4)
	g2.Valid = grid.NewBitmap(3, 3)
	if _, err := k.AddObject("bad", []ShapeGeom{g2}); err == nil {
		t.Error("mismatched mask accepted")
	}
	// Nil mask.
	g3 := rectGeom(2, 2, 4, 4)
	g3.Valid = nil
	if _, err := k.AddObject("nil", []ShapeGeom{g3}); err == nil {
		t.Error("nil mask accepted")
	}
	// No points.
	g4 := rectGeom(2, 2, 4, 4)
	g4.Points = nil
	if _, err := k.AddObject("empty", []ShapeGeom{g4}); err == nil {
		t.Error("pointless shape accepted")
	}
	// A point outside the shape's bounds, which the row masks could
	// not hold.
	g5 := rectGeom(2, 2, 4, 4)
	g5.Points = append(g5.Points, grid.Pt(2, 0))
	if _, err := k.AddObject("outside", []ShapeGeom{g5}); err == nil {
		t.Error("point outside the shape bounds accepted")
	}
}

func TestNewKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(csp.NewStore(), 0, 5)
}

func TestDecodeRoundTrip(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 7, 5)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(1, 1, 7, 5), rectGeom(2, 1, 7, 5)})
	if err != nil {
		t.Fatal(err)
	}
	for sid := 0; sid < 2; sid++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 7; x++ {
				gs, gx, gy := o.Decode(k.encode(sid, x, y))
				if gs != sid || gx != x || gy != y {
					t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)", sid, x, y, gs, gx, gy)
				}
			}
		}
	}
}

func TestPlacementAccessors(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 4, 4)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(2, 2, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if o.Assigned() {
		t.Fatal("fresh object assigned")
	}
	if err := st.Assign(o.Place, k.encode(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	sid, x, y := o.Placement()
	if sid != 0 || x != 1 || y != 2 {
		t.Fatalf("Placement = (%d,%d,%d)", sid, x, y)
	}
	if o.Name != "a" || !strings.Contains(o.Place.Name(), "a") {
		t.Fatal("naming wrong")
	}
}

// TestMinDemand checks the capacity bound counts each object's
// smallest demand over its live shapes: with one tile per row, the
// height covers the 1×1 shape's single tile, then, once only the 2×2
// shape is left, its four.
func TestMinDemand(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 6, 6)
	small := rectGeom(1, 1, 6, 6)
	big := rectGeom(2, 2, 6, 6)
	o, err := k.AddObject("a", []ShapeGeom{small, big})
	if err != nil {
		t.Fatal(err)
	}
	capPrefix := make([]fabric.Histogram, 7)
	for h := range capPrefix {
		capPrefix[h][fabric.CLB] = h
	}
	height := k.PostHeightObjective(capPrefix)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if height.Min() != 1 {
		t.Fatalf("height.min = %d, want 1 (smallest shape)", height.Min())
	}
	// Remove all shape-0 placements: min demand becomes the big shape's.
	if err := st.FilterDomain(o.Place, func(v int) bool {
		sid, _, _ := o.Decode(v)
		return sid == 1
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if height.Min() != 4 {
		t.Fatalf("height.min = %d, want 4", height.Min())
	}
}

// TestAddObjectMatchesValidScan pins the placement domain AddObject
// reads from the valid-anchor bitmaps' row words to a per-anchor
// Valid.Get scan, on random spaces narrower and wider than a word and
// random shapes, some wider than 64 columns, some with their first rows
// (or all rows) of anchors empty and some with stray valid bits past
// the last anchor that fits. The height objective's bounds must match
// the scan's top hull too.
func TestAddObjectMatchesValidScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 400; round++ {
		w, h := 1+r.Intn(150), 1+r.Intn(12)
		k := New(csp.NewStore(), w, h)
		shapes := make([]ShapeGeom, 1+r.Intn(4))
		var want []int
		minTop, maxTop := h+1, 0
		for sid := range shapes {
			gw, gh := 1+r.Intn(min(w, 6)), 1+r.Intn(h)
			if w > 64 && r.Intn(3) == 0 {
				gw = 60 + r.Intn(w-59)
			}
			g := rectGeom(gw, gh, w, h)
			g.Valid = grid.NewBitmap(w, h)
			empty, density := r.Intn(h+1), r.Intn(101)
			for y := empty; y < h; y++ {
				for x := 0; x < w; x++ {
					g.Valid.Set(x, y, r.Intn(100) < density)
				}
			}
			shapes[sid] = g
			for y := 0; y <= h-gh; y++ {
				for x := 0; x <= w-gw; x++ {
					if g.Valid.Get(x, y) {
						want = append(want, k.encode(sid, x, y))
						minTop, maxTop = min(minTop, y+gh), max(maxTop, y+gh)
					}
				}
			}
		}
		o, err := k.AddObject("o", shapes)
		if len(want) == 0 {
			if err == nil {
				t.Fatalf("round %d: object without a valid anchor accepted", round)
			}
			continue
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := o.Place.Domain().AppendValues(nil); !slices.Equal(got, want) {
			t.Fatalf("round %d (%dx%d): domain %v, Valid.Get scan %v", round, w, h, got, want)
		}
		height := k.PostHeightObjective(uniformCapPrefix(w, h))
		if err := k.st.Propagate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if height.Min() != minTop || height.Max() != maxTop {
			t.Fatalf("round %d: height [%d, %d], want [%d, %d]", round, height.Min(), height.Max(), minTop, maxTop)
		}
	}
}

// smallModel models a small placement problem touching every geost
// propagator: per-object non-overlap and compulsory-part pruning, and
// the height objective.
func smallModel() (*csp.Store, *Kernel, *csp.Var, error) {
	st := csp.NewStore()
	k := New(st, 4, 4)
	shapes := [][]ShapeGeom{
		{rectGeom(2, 2, 4, 4), rectGeom(1, 4, 4, 4)},
		{rectGeom(2, 1, 4, 4)},
		{rectGeom(1, 2, 4, 4), rectGeom(2, 1, 4, 4)},
	}
	for i, s := range shapes {
		if _, err := k.AddObject(string(rune('a'+i)), s); err != nil {
			return nil, nil, nil, err
		}
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	height := k.PostHeightObjective(uniformCapPrefix(4, 4))
	return st, k, height, nil
}

// TestKernelParallelMinimize runs the full geost model through
// MinimizeParallel at 2, 4 and 8 workers, each worker building its own
// kernel, and checks each exhaustive run returns the objective and
// placement of the sequential Minimize run.
func TestKernelParallelMinimize(t *testing.T) {
	build := func() (*csp.Store, error) {
		st, _, _, err := smallModel()
		return st, err
	}
	solve := func(workers int) (csp.MinimizeResult, []int) {
		st, k, height, err := smallModel()
		if err != nil {
			t.Fatal(err)
		}
		var sol []int
		res, err := csp.MinimizeParallel(st, k.PlaceVars(), height, csp.Options{}, func(s *csp.Store, _ int) {
			sol = sol[:0]
			for _, o := range k.Objects() {
				sol = append(sol, s.Vars()[o.Place.ID()].Value())
			}
		}, build, workers)
		if err != nil {
			t.Fatalf("workers %d: MinimizeParallel: %v", workers, err)
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
			t.Fatalf("workers %d: best %d, sequential best %d", workers, par.Best, seq.Best)
		}
		for i := range seqSol {
			if parSol[i] != seqSol[i] {
				t.Fatalf("workers %d: placement %v, sequential placement %v", workers, parSol, seqSol)
			}
		}
	}
}

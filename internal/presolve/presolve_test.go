package presolve

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/geost"
	"repro/internal/grid"
)

// allValid returns a bitmap accepting every anchor.
func allValid(w, h int) *grid.Bitmap {
	b := grid.NewBitmap(w, h)
	b.SetRect(grid.RectXYWH(0, 0, w, h), true)
	return b
}

// rectGeom builds a full w×h rectangle of CLB tiles valid everywhere
// in a spaceW×spaceH space.
func rectGeom(w, h, spaceW, spaceH int) geost.ShapeGeom {
	var pts []grid.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, grid.Pt(x, y))
		}
	}
	var hist fabric.Histogram
	hist[fabric.CLB] = len(pts)
	return geost.ShapeGeom{Points: pts, W: w, H: h, Valid: allValid(spaceW, spaceH), Hist: hist}
}

// uniformCapPrefix returns the capacity prefix for a homogeneous CLB
// space.
func uniformCapPrefix(w, h int) []fabric.Histogram {
	out := make([]fabric.Histogram, h+1)
	for i := 1; i <= h; i++ {
		out[i][fabric.CLB] = w * i
	}
	return out
}

// buildModel assembles a kernel over a w×h space with one object per
// shape list and the height objective posted.
func buildModel(t *testing.T, w, h int, shapes [][]geost.ShapeGeom) (*csp.Store, *geost.Kernel, *csp.Var) {
	t.Helper()
	st := csp.NewStore()
	k := geost.New(st, w, h)
	for i, s := range shapes {
		if _, err := k.AddObject(string(rune('a'+i)), s); err != nil {
			t.Fatal(err)
		}
	}
	k.PostNonOverlap()
	height := k.PostHeightObjective(uniformCapPrefix(w, h))
	if err := st.Propagate(); err != nil {
		t.Fatalf("root propagation: %v", err)
	}
	return st, k, height
}

// TestDominanceDropsCoveredAlternative: a 2×2 alternative whose tiles
// cover its 1×1 sibling's (and which is placeable at strictly fewer
// anchors) is dominated and leaves the domain; the 1×1 survives.
func TestDominanceDropsCoveredAlternative(t *testing.T) {
	st, k, _ := buildModel(t, 6, 6, [][]geost.ShapeGeom{
		{rectGeom(1, 1, 6, 6), rectGeom(2, 2, 6, 6)},
	})
	stats := &Stats{}
	if err := dominance(st, k, stats); err != nil {
		t.Fatal(err)
	}
	if stats.AlternativesDropped != 1 {
		t.Fatalf("AlternativesDropped = %d, want 1", stats.AlternativesDropped)
	}
	o := k.Objects()[0]
	if !o.ShapePresent(0) {
		t.Fatal("dominating 1x1 alternative was dropped")
	}
	if o.ShapePresent(1) {
		t.Fatal("dominated 2x2 alternative survived")
	}
}

// TestDominanceKeepsIncomparable: a 1×2 and a 2×1 bar are tile-wise
// incomparable, so neither may be dropped.
func TestDominanceKeepsIncomparable(t *testing.T) {
	st, k, _ := buildModel(t, 6, 6, [][]geost.ShapeGeom{
		{rectGeom(1, 2, 6, 6), rectGeom(2, 1, 6, 6)},
	})
	stats := &Stats{}
	if err := dominance(st, k, stats); err != nil {
		t.Fatal(err)
	}
	if stats.AlternativesDropped != 0 {
		t.Fatalf("AlternativesDropped = %d, want 0", stats.AlternativesDropped)
	}
	o := k.Objects()[0]
	if !o.ShapePresent(0) || !o.ShapePresent(1) {
		t.Fatal("an incomparable alternative was dropped")
	}
}

// TestSymmetryGroupsIdenticalObjects: three identical 2×2 objects form
// one interchangeable group chained by two lex constraints, and the
// constrained model still proves the unconstrained optimum.
func TestSymmetryGroupsIdenticalObjects(t *testing.T) {
	shapes := [][]geost.ShapeGeom{
		{rectGeom(2, 2, 6, 6)},
		{rectGeom(2, 2, 6, 6)},
		{rectGeom(2, 2, 6, 6)},
	}
	st, k, height := buildModel(t, 6, 6, shapes)
	stats := &Stats{}
	groups := symmetry(st, k, stats)
	if stats.Groups != 1 || stats.ModulesOrdered != 2 {
		t.Fatalf("Groups=%d ModulesOrdered=%d, want 1 and 2", stats.Groups, stats.ModulesOrdered)
	}
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want one group of three", groups)
	}
	if err := st.Propagate(); err != nil {
		t.Fatalf("propagation after lex chain: %v", err)
	}
	res, err := csp.Minimize(st, k.PlaceVars(), height, csp.Options{}, nil)
	if err != nil || !res.Found || !res.Optimal {
		t.Fatalf("minimize under lex chain: err=%v res=%+v", err, res)
	}
	if res.Best != 2 {
		t.Fatalf("optimum under lex chain = %d, want 2 (three 2x2 side by side)", res.Best)
	}
}

// TestSymmetrySkipsDistinctObjects: objects of different shapes are
// not interchangeable; no group, no constraint.
func TestSymmetrySkipsDistinctObjects(t *testing.T) {
	st, k, _ := buildModel(t, 6, 6, [][]geost.ShapeGeom{
		{rectGeom(2, 2, 6, 6)},
		{rectGeom(3, 1, 6, 6)},
	})
	stats := &Stats{}
	if groups := symmetry(st, k, stats); len(groups) != 0 {
		t.Fatalf("groups = %v, want none", groups)
	}
	if stats.Groups != 0 || stats.ModulesOrdered != 0 {
		t.Fatalf("Groups=%d ModulesOrdered=%d, want 0 and 0", stats.Groups, stats.ModulesOrdered)
	}
}

// TestStrengthenBoundWideRows: four 3×1 bars in a 4-wide region. The
// tile-capacity bound only proves ceil(12/4) = 3 rows, but each bar
// spans more than half the region width, so no two can share a row:
// the pigeonhole bound must raise the height minimum to 4.
func TestStrengthenBoundWideRows(t *testing.T) {
	shapes := make([][]geost.ShapeGeom, 4)
	for i := range shapes {
		shapes[i] = []geost.ShapeGeom{rectGeom(3, 1, 4, 8)}
	}
	st, k, height := buildModel(t, 4, 8, shapes)
	if got := height.Min(); got != 3 {
		t.Fatalf("capacity bound = %d, want 3 before strengthening", got)
	}
	if err := strengthenBound(st, k, height); err != nil {
		t.Fatal(err)
	}
	if got := height.Min(); got != 4 {
		t.Fatalf("height lower bound = %d after strengthening, want 4", got)
	}
}

// TestApplyWarmStartFeasible: the warm placement Apply reports must be
// geometrically consistent — every value live in its object's domain,
// no two objects overlapping, and the claimed objective equal to the
// real top row of the painted placement.
func TestApplyWarmStartFeasible(t *testing.T) {
	shapes := [][]geost.ShapeGeom{
		{rectGeom(2, 2, 6, 6), rectGeom(4, 1, 6, 6)},
		{rectGeom(2, 2, 6, 6)},
		{rectGeom(3, 1, 6, 6), rectGeom(1, 3, 6, 6)},
	}
	st, k, height := buildModel(t, 6, 6, shapes)
	stats, err := Apply(st, k, height)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WarmFound {
		t.Fatal("warm start found no placement on a trivially feasible instance")
	}
	occ := grid.NewBitmap(k.W(), k.H())
	top := 0
	for i, o := range k.Objects() {
		val := stats.WarmValues[i]
		if !o.Place.Domain().Contains(val) {
			t.Fatalf("object %d: warm value %d not in the (post-presolve) domain", i, val)
		}
		sid, x, y := o.Decode(val)
		for _, p := range o.Shapes[sid].Points {
			if occ.Get(x+p.X, y+p.Y) {
				t.Fatalf("object %d: warm placement overlaps at (%d,%d)", i, x+p.X, y+p.Y)
			}
			occ.Set(x+p.X, y+p.Y, true)
		}
		if t2 := o.TopOf(val); t2 > top {
			top = t2
		}
	}
	if top != stats.WarmObjective {
		t.Fatalf("WarmObjective = %d, painted top = %d", stats.WarmObjective, top)
	}
	if stats.WarmObjective < height.Min() {
		t.Fatalf("warm objective %d below the height lower bound %d", stats.WarmObjective, height.Min())
	}
}

// TestFirstFreeMatchesSortedScan pins the warm start's upward walk to
// its definition: the first placement, with the domain sorted by (top,
// y, x, shape), whose footprint misses the occupancy. Shapes share
// heights so that equal-height alternatives interleave by x.
func TestFirstFreeMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		w, h := 6+rng.Intn(10), 6+rng.Intn(10)
		var shapes []geost.ShapeGeom
		for n := 1 + rng.Intn(4); len(shapes) < n; {
			g := rectGeom(1+rng.Intn(3), 1+rng.Intn(3), w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					g.Valid.Set(x, y, rng.Intn(3) > 0)
				}
			}
			shapes = append(shapes, g)
		}
		_, k, _ := buildModel(t, w, h, [][]geost.ShapeGeom{shapes})
		o := k.Objects()[0]
		occ := grid.NewBitmap(w, h)
		for i := rng.Intn(w * h); i > 0; i-- {
			occ.Set(rng.Intn(w), rng.Intn(h), true)
		}

		cands := o.Place.Domain().AppendValues(nil)
		sort.SliceStable(cands, func(a, b int) bool {
			sa, xa, ya := o.Decode(cands[a])
			sb, xb, yb := o.Decode(cands[b])
			ka := [4]int{o.TopOf(cands[a]), ya, xa, sa}
			kb := [4]int{o.TopOf(cands[b]), yb, xb, sb}
			return slices.Compare(ka[:], kb[:]) < 0
		})
		want, wantOK := 0, false
		for _, v := range cands {
			sid, x, y := o.Decode(v)
			if !occ.AnyAt(o.Shapes[sid].Points, grid.Pt(x, y)) {
				want, wantOK = v, true
				break
			}
		}
		if got, ok := firstFree(k, o, occ); got != want || ok != wantOK {
			t.Fatalf("trial %d: firstFree = %d, %v; sorted scan = %d, %v", trial, got, ok, want, wantOK)
		}
	}
}

// TestPointsSubsetMatchesSet pins the merge-walk pointsSubset to a
// set-membership reference on random canonical point sets, with subsets
// drawn from the superset and perturbed.
func TestPointsSubsetMatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	canonical := func(ps []grid.Point) []grid.Point {
		slices.SortFunc(ps, func(a, b grid.Point) int {
			if a.Less(b) {
				return -1
			}
			if b.Less(a) {
				return 1
			}
			return 0
		})
		return slices.Compact(ps)
	}
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(6)
		var super, sub []grid.Point
		for j := r.Intn(20); j >= 0; j-- {
			super = append(super, grid.Pt(r.Intn(n), r.Intn(n)))
		}
		super = canonical(super)
		for _, p := range super {
			if r.Intn(3) > 0 {
				sub = append(sub, p)
			}
		}
		if r.Intn(2) == 0 {
			sub = append(sub, grid.Pt(r.Intn(n+1), r.Intn(n+1)))
		}
		sub = canonical(sub)
		set := map[grid.Point]bool{}
		for _, p := range super {
			set[p] = true
		}
		want := true
		for _, p := range sub {
			want = want && set[p]
		}
		if got := pointsSubset(sub, super); got != want {
			t.Fatalf("pointsSubset(%v, %v) = %v, want %v", sub, super, got, want)
		}
	}
}

// TestPointsSubsetAllocatesNothing checks the dominance and symmetry
// tile comparison allocates nothing.
func TestPointsSubsetAllocatesNothing(t *testing.T) {
	a, b := rectGeom(3, 2, 8, 8).Points, rectGeom(3, 3, 8, 8).Points
	if n := testing.AllocsPerRun(100, func() { pointsSubset(a, b) }); n != 0 {
		t.Fatalf("pointsSubset allocated %v times per call", n)
	}
}

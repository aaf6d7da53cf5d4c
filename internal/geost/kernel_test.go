package geost

import (
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
	if o.Top.Min() != 2 || o.Top.Max() != 3 {
		t.Fatalf("top = [%d,%d], want [2,3]", o.Top.Min(), o.Top.Max())
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

func TestMinDemand(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 6, 6)
	small := rectGeom(1, 1, 6, 6)
	big := rectGeom(2, 2, 6, 6)
	o, err := k.AddObject("a", []ShapeGeom{small, big})
	if err != nil {
		t.Fatal(err)
	}
	d := o.MinDemand()
	if d[fabric.CLB] != 1 {
		t.Fatalf("MinDemand CLB = %d, want 1 (smallest shape)", d[fabric.CLB])
	}
	// Remove all shape-0 placements: min demand becomes the big shape's.
	if err := st.FilterDomain(o.Place, func(v int) bool {
		sid, _, _ := o.Decode(v)
		return sid == 1
	}); err != nil {
		t.Fatal(err)
	}
	d = o.MinDemand()
	if d[fabric.CLB] != 4 {
		t.Fatalf("MinDemand CLB = %d, want 4", d[fabric.CLB])
	}
}

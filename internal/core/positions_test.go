package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// bramStripeRegion: 6 wide, 4 tall, column 2 is BRAM, rest CLB.
func bramStripeRegion() *fabric.Region {
	dev := fabric.NewDevice("stripe", 6, 4, func(x, y int) fabric.Kind {
		if x == 2 {
			return fabric.BRAM
		}
		return fabric.CLB
	})
	return dev.FullRegion()
}

func TestValidAnchorsCLBOnly(t *testing.T) {
	r := bramStripeRegion()
	// A 2x1 CLB bar cannot straddle the BRAM column: anchors with
	// x in {1, 2} are invalid.
	s := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.CLB},
	})
	b := ValidAnchors(r, s)
	for y := 0; y < 4; y++ {
		for x := 0; x <= 4; x++ {
			want := x != 1 && x != 2
			if got := b.Get(x, y); got != want {
				t.Errorf("anchor (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	// Out-of-bounds anchor x=5 must be false.
	if b.Get(5, 0) {
		t.Error("anchor beyond region accepted")
	}
}

func TestValidAnchorsWithBRAM(t *testing.T) {
	r := bramStripeRegion()
	// Shape: BRAM at local x=1, CLB at x=0 and x=2. Only anchors with
	// x=1 align the BRAM tile with region column 2.
	s := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.BRAM},
		{At: grid.Pt(2, 0), Kind: fabric.CLB},
	})
	b := ValidAnchors(r, s)
	if b.Count() != 4 {
		t.Fatalf("anchor count = %d, want 4 (x=1, all rows)", b.Count())
	}
	for y := 0; y < 4; y++ {
		if !b.Get(1, y) {
			t.Errorf("anchor (1,%d) missing", y)
		}
	}
}

func TestValidAnchorsNoneForDSP(t *testing.T) {
	r := bramStripeRegion()
	s := module.MustShape([]module.Tile{{At: grid.Pt(0, 0), Kind: fabric.DSP}})
	if got := ValidAnchors(r, s).Count(); got != 0 {
		t.Fatalf("DSP anchors = %d on a DSP-free region", got)
	}
}

func TestValidAnchorsRespectsStatic(t *testing.T) {
	dev := fabric.Homogeneous(4, 4)
	dev.MaskStatic(grid.RectXYWH(0, 0, 4, 2)) // bottom half static
	r := dev.FullRegion()
	s := module.MustShape([]module.Tile{{At: grid.Pt(0, 0), Kind: fabric.CLB}})
	b := ValidAnchors(r, s)
	if b.Count() != 8 {
		t.Fatalf("anchors = %d, want 8 (top half only)", b.Count())
	}
	if b.Get(0, 0) || !b.Get(0, 2) {
		t.Fatal("static masking not respected")
	}
}

func TestShapeGeomFor(t *testing.T) {
	r := bramStripeRegion()
	s := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.BRAM},
	})
	g := NewAnchorTable(r).ShapeGeom(s)
	if g.W != 2 || g.H != 1 || len(g.Points) != 2 {
		t.Fatalf("geometry wrong: %dx%d %d points", g.W, g.H, len(g.Points))
	}
	if g.Hist[fabric.BRAM] != 1 || g.Hist[fabric.CLB] != 1 {
		t.Fatalf("hist wrong: %v", g.Hist)
	}
	if g.Valid.Count() == 0 {
		t.Fatal("no valid anchors computed")
	}
}

func TestCapacityPrefix(t *testing.T) {
	r := bramStripeRegion()
	cp := CapacityPrefix(r)
	if len(cp) != 5 {
		t.Fatalf("len = %d, want 5", len(cp))
	}
	if cp[0].Total() != 0 {
		t.Fatal("prefix[0] not empty")
	}
	// Each row: 5 CLB + 1 BRAM.
	for h := 1; h <= 4; h++ {
		if cp[h][fabric.CLB] != 5*h || cp[h][fabric.BRAM] != h {
			t.Fatalf("prefix[%d] = %v", h, cp[h])
		}
	}
}

// TestFitConstraints drives Fit on a heterogeneous fabric (the BRAM
// stripe) with a CLB–BRAM–CLB shape: one valid anchor and one crafted
// violation of each constraint, checking the constraint and the first
// offending tile Fit reports. It also pins ValidAnchors to Fits on an
// empty fabric at every anchor, inside the region and around it.
func TestFitConstraints(t *testing.T) {
	r := bramStripeRegion()
	s := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.BRAM},
		{At: grid.Pt(2, 0), Kind: fabric.CLB},
	})
	occ := grid.NewBitmap(r.W(), r.H())
	occ.Set(3, 2, true)
	for _, tc := range []struct {
		name string
		at   grid.Point
		want Constraint // 0: fits
		tile grid.Point
	}{
		{"valid", grid.Pt(1, 0), 0, grid.Point{}},
		{"M_a above the region", grid.Pt(1, 4), InRegion, grid.Pt(1, 4)},
		{"M_a left of the region", grid.Pt(-1, 1), InRegion, grid.Pt(-1, 1)},
		{"M_b BRAM tile on CLB", grid.Pt(0, 0), ResourceMatch, grid.Pt(1, 0)},
		{"M_b CLB tile on BRAM", grid.Pt(2, 1), ResourceMatch, grid.Pt(2, 1)},
		{"M_c occupied tile", grid.Pt(1, 2), NonOverlap, grid.Pt(3, 2)},
	} {
		err := Fit(r, occ, s, tc.at)
		if got := Fits(r, occ, s, tc.at); got != (err == nil) {
			t.Errorf("%s: Fits = %v, Fit = %v", tc.name, got, err)
		}
		if tc.want == 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		var fe *FitError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: Fit = %v, want a *FitError", tc.name, err)
		}
		if fe.Violated != tc.want || fe.At != tc.tile {
			t.Errorf("%s: got %v at %v (%v), want %v at %v", tc.name, fe.Violated, fe.At, err, tc.want, tc.tile)
		}
		if !strings.Contains(err.Error(), tc.want.String()) {
			t.Errorf("%s: %q does not name %v", tc.name, err, tc.want)
		}
	}
	if Fits(r, occ, s, grid.Pt(1, 2)) || !Fits(r, nil, s, grid.Pt(1, 2)) {
		t.Error("a nil occupancy must mean an empty fabric")
	}

	for _, sh := range []*module.Shape{s, module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(0, 1), Kind: fabric.CLB},
		{At: grid.Pt(1, 1), Kind: fabric.CLB},
	})} {
		va := ValidAnchors(r, sh)
		for y := -2; y < r.H()+2; y++ {
			for x := -2; x < r.W()+2; x++ {
				if got, want := va.Get(x, y), Fits(r, nil, sh, grid.Pt(x, y)); got != want {
					t.Errorf("anchor (%d,%d): ValidAnchors %v, Fits %v", x, y, got, want)
				}
			}
		}
	}
}

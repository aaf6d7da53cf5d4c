package online

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/grid"
)

func TestMaximalEmptyRectsEmptyRegion(t *testing.T) {
	region := fabric.Homogeneous(6, 4).FullRegion()
	occ := grid.NewBitmap(6, 4)
	mers := MaximalEmptyRects(region, occ)
	if len(mers) != 1 {
		t.Fatalf("mers = %v, want one full rect", mers)
	}
	if mers[0] != grid.RectXYWH(0, 0, 6, 4) {
		t.Fatalf("mer = %v", mers[0])
	}
}

func TestMaximalEmptyRectsSplit(t *testing.T) {
	region := fabric.Homogeneous(5, 5).FullRegion()
	occ := grid.NewBitmap(5, 5)
	occ.SetRect(grid.RectXYWH(2, 2, 1, 1), true) // single blocker in the centre
	mers := MaximalEmptyRects(region, occ)
	// Four maximal rects around a centre blocker: left 2x5, right 2x5,
	// bottom 5x2, top 5x2.
	want := map[grid.Rect]bool{
		grid.RectXYWH(0, 0, 2, 5): true,
		grid.RectXYWH(3, 0, 2, 5): true,
		grid.RectXYWH(0, 0, 5, 2): true,
		grid.RectXYWH(0, 3, 5, 2): true,
	}
	if len(mers) != len(want) {
		t.Fatalf("mers = %v", mers)
	}
	for _, r := range mers {
		if !want[r] {
			t.Fatalf("unexpected mer %v in %v", r, mers)
		}
	}
}

func TestMaximalEmptyRectsFullyOccupied(t *testing.T) {
	region := fabric.Homogeneous(3, 3).FullRegion()
	occ := grid.NewBitmap(3, 3)
	occ.SetRect(grid.RectXYWH(0, 0, 3, 3), true)
	if mers := MaximalEmptyRects(region, occ); len(mers) != 0 {
		t.Fatalf("mers = %v, want none", mers)
	}
}

func TestMaximalEmptyRectsRespectPlaceability(t *testing.T) {
	// A static column splits the free space even with empty occupancy.
	dev := fabric.Homogeneous(5, 3)
	dev.MaskStatic(grid.RectXYWH(2, 0, 1, 3))
	region := dev.FullRegion()
	mers := MaximalEmptyRects(region, grid.NewBitmap(5, 3))
	want := map[grid.Rect]bool{
		grid.RectXYWH(0, 0, 2, 3): true,
		grid.RectXYWH(3, 0, 2, 3): true,
	}
	if len(mers) != 2 {
		t.Fatalf("mers = %v", mers)
	}
	for _, r := range mers {
		if !want[r] {
			t.Fatalf("unexpected mer %v", r)
		}
	}
}

// Regression for the containment-filter aliasing bug: the filter used
// to build its output as `out := cands[:0]`, so every append clobbered
// an entry of cands that the inner containment loop still reads. The
// filter must leave its input untouched. The candidate list is crafted
// so a drop happens before keeps (the first candidate is contained in a
// later one): with the aliased output, the keeps then shift left over
// the dropped slot and rewrite the input in place, which this test
// catches on the old code.
func TestDropContainedDoesNotClobberInput(t *testing.T) {
	cands := []grid.Rect{
		grid.RectXYWH(0, 0, 1, 1), // contained in the next two: dropped first
		grid.RectXYWH(0, 0, 4, 1),
		grid.RectXYWH(0, 0, 1, 4),
		grid.RectXYWH(2, 2, 2, 2),
		grid.RectXYWH(2, 2, 1, 1), // contained: dropped
		grid.RectXYWH(5, 5, 3, 3),
	}
	orig := make([]grid.Rect, len(cands))
	copy(orig, cands)

	got := dropContained(cands)

	for i := range cands {
		if cands[i] != orig[i] {
			t.Fatalf("dropContained mutated its input: cands[%d] = %v, was %v (cands now %v)",
				i, cands[i], orig[i], cands)
		}
	}
	want := map[grid.Rect]bool{
		grid.RectXYWH(0, 0, 4, 1): true,
		grid.RectXYWH(0, 0, 1, 4): true,
		grid.RectXYWH(2, 2, 2, 2): true,
		grid.RectXYWH(5, 5, 3, 3): true,
	}
	if len(got) != len(want) {
		t.Fatalf("dropContained = %v, want the %d maximal rects", got, len(want))
	}
	for _, r := range got {
		if !want[r] {
			t.Fatalf("dropContained kept non-maximal %v (out %v)", r, got)
		}
	}
}

// bruteForceMaximalRects is the oracle for TestMaximalEmptyRectsOracle:
// enumerate every free rectangle of the region (all tiles placeable and
// unoccupied) and keep exactly those that no one-tile growth keeps
// free — the definition of a maximal empty rectangle, with none of the
// sweep's cleverness.
func bruteForceMaximalRects(region *fabric.Region, occ *grid.Bitmap) []grid.Rect {
	w, h := region.W(), region.H()
	isFree := func(r grid.Rect) bool {
		if r.MinX < 0 || r.MinY < 0 || r.MaxX > w || r.MaxY > h {
			return false
		}
		for _, p := range r.Points() {
			if !region.PlaceableAt(p.X, p.Y) || occ.Get(p.X, p.Y) {
				return false
			}
		}
		return true
	}
	var out []grid.Rect
	for y0 := 0; y0 < h; y0++ {
		for y1 := y0 + 1; y1 <= h; y1++ {
			for x0 := 0; x0 < w; x0++ {
				for x1 := x0 + 1; x1 <= w; x1++ {
					r := grid.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
					if !isFree(r) {
						continue
					}
					if isFree(grid.Rect{MinX: x0 - 1, MinY: y0, MaxX: x1, MaxY: y1}) ||
						isFree(grid.Rect{MinX: x0, MinY: y0 - 1, MaxX: x1, MaxY: y1}) ||
						isFree(grid.Rect{MinX: x0, MinY: y0, MaxX: x1 + 1, MaxY: y1}) ||
						isFree(grid.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1 + 1}) {
						continue
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// TestMaximalEmptyRectsOracle cross-checks the sweep against the
// brute-force all-maximal-rectangles oracle on small random regions
// with non-placeable holes: the two must agree exactly, as sets, on
// every instance. Runs under the race job via the ordinary suite.
func TestMaximalEmptyRectsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		w, h := 2+rng.Intn(7), 2+rng.Intn(7)
		dev := fabric.Homogeneous(w, h)
		// Punch static (non-placeable) holes so the free space is
		// bounded by more than just occupancy.
		for i := rng.Intn(3); i > 0; i-- {
			dev.MaskStatic(grid.RectXYWH(rng.Intn(w), rng.Intn(h), 1, 1))
		}
		region := dev.FullRegion()
		occ := grid.NewBitmap(w, h)
		for i := rng.Intn(w * h); i > 0; i-- {
			occ.Set(rng.Intn(w), rng.Intn(h), true)
		}

		got := MaximalEmptyRects(region, occ)
		want := bruteForceMaximalRects(region, occ)
		gotSet := map[grid.Rect]bool{}
		for _, r := range got {
			if gotSet[r] {
				t.Fatalf("trial %d (%dx%d): duplicate rect %v in %v\nocc:\n%s", trial, w, h, r, got, occ)
			}
			gotSet[r] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%dx%d): got %d rects %v, oracle %d rects %v\nocc:\n%s",
				trial, w, h, len(got), got, len(want), want, occ)
		}
		for _, r := range want {
			if !gotSet[r] {
				t.Fatalf("trial %d (%dx%d): oracle rect %v missing from %v\nocc:\n%s", trial, w, h, r, got, occ)
			}
		}
	}
}

// Properties: every returned rect is empty, maximal, and every free tile
// is covered by some rect.
func TestMaximalEmptyRectsProperties(t *testing.T) {
	region := fabric.Homogeneous(8, 8).FullRegion()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		occ := grid.NewBitmap(8, 8)
		for i := 0; i < int(n%40); i++ {
			occ.Set(rng.Intn(8), rng.Intn(8), true)
		}
		mers := MaximalEmptyRects(region, occ)
		// Emptiness.
		for _, r := range mers {
			for _, p := range r.Points() {
				if occ.Get(p.X, p.Y) {
					return false
				}
			}
		}
		// Maximality: growing any rect by one in any direction hits an
		// occupied/out-of-range tile.
		grow := func(r grid.Rect, dx0, dy0, dx1, dy1 int) grid.Rect {
			return grid.Rect{MinX: r.MinX + dx0, MinY: r.MinY + dy0, MaxX: r.MaxX + dx1, MaxY: r.MaxY + dy1}
		}
		ok := func(r grid.Rect) bool {
			if !region.Bounds().Contains(r) {
				return false
			}
			for _, p := range r.Points() {
				if occ.Get(p.X, p.Y) {
					return false
				}
			}
			return true
		}
		for _, r := range mers {
			for _, g := range []grid.Rect{
				grow(r, -1, 0, 0, 0), grow(r, 0, -1, 0, 0),
				grow(r, 0, 0, 1, 0), grow(r, 0, 0, 0, 1),
			} {
				if ok(g) {
					return false
				}
			}
		}
		// Coverage.
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if occ.Get(x, y) {
					continue
				}
				covered := false
				for _, r := range mers {
					if r.Contains(grid.RectXYWH(x, y, 1, 1)) {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/grid"
)

func homoRegion(w, h int) *fabric.Region {
	return fabric.Homogeneous(w, h).FullRegion()
}

func TestUtilizationEmpty(t *testing.T) {
	r := homoRegion(4, 4)
	occ := grid.NewBitmap(4, 4)
	if got := Utilization(r, occ); got != 0 {
		t.Fatalf("empty utilization = %v", got)
	}
	if got := OverallUtilization(r, occ); got != 0 {
		t.Fatalf("empty overall = %v", got)
	}
}

func TestUtilizationSpan(t *testing.T) {
	r := homoRegion(4, 10)
	occ := grid.NewBitmap(4, 10)
	// Fill rows 0 and 1 fully: extent is 2 rows, 8 tiles, all occupied.
	occ.SetRect(grid.RectXYWH(0, 0, 4, 2), true)
	if got := Utilization(r, occ); got != 1.0 {
		t.Fatalf("full-extent utilization = %v, want 1", got)
	}
	// Add one tile on row 4: extent is 5 rows = 20 tiles, 9 occupied.
	occ.Set(0, 4, true)
	want := 9.0 / 20.0
	if got := Utilization(r, occ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
	// Overall uses all 40 tiles.
	if got := OverallUtilization(r, occ); math.Abs(got-9.0/40.0) > 1e-12 {
		t.Fatalf("overall = %v", got)
	}
}

func TestUtilizationIgnoresUnusableTiles(t *testing.T) {
	// Region with a static column: denominator counts only placeable.
	dev := fabric.Homogeneous(4, 4)
	dev.MaskStatic(grid.RectXYWH(0, 0, 1, 4))
	r := dev.FullRegion()
	occ := grid.NewBitmap(4, 4)
	occ.SetRect(grid.RectXYWH(1, 0, 3, 1), true) // fill usable part of row 0
	if got := Utilization(r, occ); got != 1.0 {
		t.Fatalf("utilization = %v, want 1 (static excluded)", got)
	}
}

func TestFreeInSpan(t *testing.T) {
	r := homoRegion(3, 5)
	occ := grid.NewBitmap(3, 5)
	occ.Set(0, 0, true)
	occ.Set(2, 1, true)
	// Extent rows 0..1: 6 usable, 2 occupied.
	if got := FreeInSpan(r, occ); got != 4 {
		t.Fatalf("FreeInSpan = %d, want 4", got)
	}
	if got := FreeInSpan(r, grid.NewBitmap(3, 5)); got != 0 {
		t.Fatalf("empty FreeInSpan = %d", got)
	}
}

func TestLargestFreeRect(t *testing.T) {
	r := homoRegion(4, 4)
	occ := grid.NewBitmap(4, 4)
	// Occupy the left 2 columns of rows 0..2; top occupied row = 2.
	occ.SetRect(grid.RectXYWH(0, 0, 2, 3), true)
	// Free space within extent: columns 2..3, rows 0..2 = 2x3 = 6.
	if got := LargestFreeRect(r, occ); got != 6 {
		t.Fatalf("LargestFreeRect = %d, want 6", got)
	}
}

func TestLargestFreeRectScattered(t *testing.T) {
	r := homoRegion(3, 3)
	occ := grid.NewBitmap(3, 3)
	// Checkerboard occupation of rows 0..2.
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if (x+y)%2 == 0 {
				occ.Set(x, y, true)
			}
		}
	}
	if got := LargestFreeRect(r, occ); got != 1 {
		t.Fatalf("LargestFreeRect = %d, want 1", got)
	}
	frag := Fragmentation(r, occ)
	if frag <= 0.5 {
		t.Fatalf("checkerboard fragmentation = %v, want high", frag)
	}
}

func TestFragmentationSolid(t *testing.T) {
	r := homoRegion(4, 4)
	occ := grid.NewBitmap(4, 4)
	occ.SetRect(grid.RectXYWH(0, 0, 2, 2), true)
	// Free space in extent: columns 2..3 rows 0..1 = one 2x2 rect.
	if got := Fragmentation(r, occ); got != 0 {
		t.Fatalf("solid free space fragmentation = %v, want 0", got)
	}
	// Full occupation: no free space.
	occ.SetRect(grid.RectXYWH(0, 0, 4, 2), true)
	if got := Fragmentation(r, occ); got != 0 {
		t.Fatalf("no-free fragmentation = %v, want 0", got)
	}
}

func TestLargestInHistogramKnown(t *testing.T) {
	cases := []struct {
		h    []int
		want int
	}{
		{[]int{2, 1, 5, 6, 2, 3}, 10},
		{[]int{1, 1, 1, 1}, 4},
		{[]int{4}, 4},
		{[]int{}, 0},
		{[]int{0, 0}, 0},
		{[]int{3, 0, 3}, 3},
	}
	for _, c := range cases {
		if got := largestInHistogram(c.h); got != c.want {
			t.Errorf("largestInHistogram(%v) = %d, want %d", c.h, got, c.want)
		}
	}
}

// Property: the largest free rectangle never exceeds the free tile count
// and is positive whenever a free tile exists in the span.
func TestLargestFreeRectBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := homoRegion(6, 6)
		occ := grid.NewBitmap(6, 6)
		v := seed
		for i := 0; i < int(n%24); i++ {
			v = v*6364136223846793005 + 1442695040888963407
			x := int(uint64(v)>>33) % 6
			y := int(uint64(v)>>50) % 6
			occ.Set(x, y, true)
		}
		free := FreeInSpan(r, occ)
		rect := LargestFreeRect(r, occ)
		if rect > free {
			return false
		}
		if free > 0 && rect == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("Summary = %+v", s)
	}
	// Sample stddev of this classic dataset is ~2.138.
	if math.Abs(s.StdDev-2.13809) > 1e-4 {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 should be positive")
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.CI95() != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{3})
	if one.Mean != 3 || one.StdDev != 0 || one.CI95() != 0 {
		t.Fatalf("single summary = %+v", one)
	}
}

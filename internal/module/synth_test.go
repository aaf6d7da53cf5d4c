package module

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/grid"
)

// Histogram converts the demand into a fabric histogram.
func (d Demand) Histogram() fabric.Histogram {
	var h fabric.Histogram
	h[fabric.CLB] = d.CLB
	h[fabric.BRAM] = d.BRAM
	h[fabric.DSP] = d.DSP
	return h
}

func TestDemandValidate(t *testing.T) {
	if (Demand{CLB: 1}).Validate() != nil {
		t.Error("valid demand rejected")
	}
	if (Demand{CLB: -1}).Validate() == nil {
		t.Error("negative demand accepted")
	}
	if (Demand{}).Validate() == nil {
		t.Error("empty demand accepted")
	}
	d := Demand{CLB: 3, BRAM: 2, DSP: 1}
	if d.Total() != 6 {
		t.Errorf("Total = %d", d.Total())
	}
}

func TestSynthesizeMatchesDemand(t *testing.T) {
	f := func(clb, bram, dsp, width uint8) bool {
		d := Demand{CLB: int(clb % 60), BRAM: int(bram % 5), DSP: int(dsp % 3)}
		w := 1 + int(width%8)
		s, err := Synthesize(d, w, DedicatedLeft)
		if err != nil {
			return true // infeasible parameter combos are fine
		}
		h := s.Histogram()
		return h == d.Histogram()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(Demand{}, 3, DedicatedLeft); err == nil {
		t.Error("empty demand accepted")
	}
	if _, err := Synthesize(Demand{CLB: 10}, 0, DedicatedLeft); err == nil {
		t.Error("zero width accepted")
	}
	// Width 2 with BRAM and DSP leaves no CLB column.
	if _, err := Synthesize(Demand{CLB: 5, BRAM: 1, DSP: 1}, 2, DedicatedLeft); err == nil {
		t.Error("no CLB columns accepted")
	}
	if _, err := Synthesize(Demand{CLB: 1}, 1, Side(9)); err == nil {
		t.Error("invalid side accepted")
	}
}

func TestSynthesizeDedicatedSides(t *testing.T) {
	d := Demand{CLB: 6, BRAM: 2}
	left, err := Synthesize(d, 4, DedicatedLeft)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Synthesize(d, 4, DedicatedRight)
	if err != nil {
		t.Fatal(err)
	}
	lb := tilesOfKind(left, fabric.BRAM)
	rb := tilesOfKind(right, fabric.BRAM)
	for _, p := range lb {
		if p.X != 0 {
			t.Errorf("left BRAM at x=%d", p.X)
		}
	}
	for _, p := range rb {
		if p.X != 3 {
			t.Errorf("right BRAM at x=%d", p.X)
		}
	}
	// Same bounding box: internal layout variants only.
	if left.bounds != right.bounds {
		t.Errorf("bounds differ: %v vs %v", left.bounds, right.bounds)
	}
	if left.Equal(right) {
		t.Error("left/right layouts should differ")
	}
}

func TestSynthesizeColumnStructure(t *testing.T) {
	// 7 CLB over 3 CLB columns: heights 3,2,2. BRAM column height 2.
	s, err := Synthesize(Demand{CLB: 7, BRAM: 2}, 4, DedicatedLeft)
	if err != nil {
		t.Fatal(err)
	}
	colHeights := map[int]int{}
	for _, tl := range s.Tiles() {
		if tl.At.Y+1 > colHeights[tl.At.X] {
			colHeights[tl.At.X] = tl.At.Y + 1
		}
	}
	want := map[int]int{0: 2, 1: 3, 2: 2, 3: 2}
	for x, h := range want {
		if colHeights[x] != h {
			t.Errorf("column %d height = %d, want %d (shape:\n%s)", x, colHeights[x], h, s)
		}
	}
	// BRAM tiles are a contiguous stack from y=0.
	for i, p := range tilesOfKind(s, fabric.BRAM) {
		if p != grid.Pt(0, i) {
			t.Errorf("BRAM tile %d at %v", i, p)
		}
	}
}

func TestSynthesizeDSPColumn(t *testing.T) {
	s, err := Synthesize(Demand{CLB: 4, BRAM: 2, DSP: 3}, 5, DedicatedLeft)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tilesOfKind(s, fabric.BRAM) {
		if p.X != 0 {
			t.Errorf("BRAM not outermost-left: %v", p)
		}
	}
	for _, p := range tilesOfKind(s, fabric.DSP) {
		if p.X != 1 {
			t.Errorf("DSP not adjacent to BRAM: %v", p)
		}
	}
	r, err := Synthesize(Demand{CLB: 4, BRAM: 2, DSP: 3}, 5, DedicatedRight)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tilesOfKind(r, fabric.BRAM) {
		if p.X != 4 {
			t.Errorf("right-side BRAM not outermost: %v", p)
		}
	}
	for _, p := range tilesOfKind(r, fabric.DSP) {
		if p.X != 3 {
			t.Errorf("right-side DSP position: %v", p)
		}
	}
}

func TestSynthesizeDedicatedOnly(t *testing.T) {
	s, err := Synthesize(Demand{BRAM: 3}, 1, DedicatedLeft)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 || s.W() != 1 || s.H() != 3 {
		t.Fatalf("BRAM-only shape wrong: %dx%d size %d", s.W(), s.H(), s.Size())
	}
}

func TestBalancedWidth(t *testing.T) {
	cases := []struct {
		d    Demand
		want int
	}{
		{Demand{CLB: 16}, 4},
		{Demand{CLB: 16, BRAM: 2}, 5},
		{Demand{CLB: 16, BRAM: 2, DSP: 1}, 6},
		{Demand{CLB: 1}, 1},
		{Demand{BRAM: 4}, 1},
		{Demand{}, 1},
	}
	for _, c := range cases {
		if got := BalancedWidth(c.d); got != c.want {
			t.Errorf("BalancedWidth(%+v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBalancedWidthRoughlySquare(t *testing.T) {
	f := func(clb uint8) bool {
		d := Demand{CLB: 1 + int(clb)}
		w := BalancedWidth(d)
		s, err := Synthesize(d, w, DedicatedLeft)
		if err != nil {
			return false
		}
		// Aspect ratio within a factor of 2.5 of square.
		ar := float64(s.W()) / float64(s.H())
		return ar > 0.4 && ar < 2.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

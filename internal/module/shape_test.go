package module

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/grid"
)

func lShape() *Shape {
	// cc
	// c.
	return MustShape([]Tile{
		{grid.Pt(0, 0), fabric.CLB},
		{grid.Pt(0, 1), fabric.CLB},
		{grid.Pt(1, 1), fabric.CLB},
	})
}

// tilesOfKind returns the coordinates of s's tiles of kind k.
func tilesOfKind(s *Shape, k fabric.Kind) []grid.Point {
	var out []grid.Point
	for _, t := range s.Tiles() {
		if t.Kind == k {
			out = append(out, t.At)
		}
	}
	return out
}

func TestNewShapeValidation(t *testing.T) {
	if _, err := NewShape(nil); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := NewShape([]Tile{{grid.Pt(0, 0), fabric.Static}}); err == nil {
		t.Error("Static tile accepted")
	}
	if _, err := NewShape([]Tile{{grid.Pt(0, 0), fabric.IOB}}); err == nil {
		t.Error("IOB tile accepted")
	}
	if _, err := NewShape([]Tile{
		{grid.Pt(1, 1), fabric.CLB},
		{grid.Pt(1, 1), fabric.BRAM},
	}); err == nil {
		t.Error("duplicate coordinate accepted")
	}
}

func TestShapeNormalisation(t *testing.T) {
	s := MustShape([]Tile{
		{grid.Pt(5, 7), fabric.CLB},
		{grid.Pt(6, 7), fabric.BRAM},
		{grid.Pt(5, 8), fabric.CLB},
	})
	if s.bounds.MinX != 0 || s.bounds.MinY != 0 {
		t.Fatalf("not normalised: %v", s.bounds)
	}
	if s.W() != 2 || s.H() != 2 || s.Size() != 3 {
		t.Fatalf("geometry wrong: %dx%d size %d", s.W(), s.H(), s.Size())
	}
	// Same tiles expressed at a different offset give an equal shape.
	s2 := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.CLB},
		{grid.Pt(1, 0), fabric.BRAM},
		{grid.Pt(0, 1), fabric.CLB},
	})
	if !s.Equal(s2) {
		t.Fatal("translation changed shape identity")
	}
	if s.Key() != s2.Key() {
		t.Fatal("keys differ for equal shapes")
	}
}

func TestShapeAccessors(t *testing.T) {
	s := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.BRAM},
		{grid.Pt(1, 0), fabric.CLB},
		{grid.Pt(2, 0), fabric.CLB},
	})
	h := s.Histogram()
	if h[fabric.BRAM] != 1 || h[fabric.CLB] != 2 {
		t.Fatalf("histogram %v", h)
	}
	brams := tilesOfKind(s, fabric.BRAM)
	if len(brams) != 1 || brams[0] != grid.Pt(0, 0) {
		t.Fatalf("BRAM tiles = %v", brams)
	}
	if got := len(tilesOfKind(s, fabric.DSP)); got != 0 {
		t.Fatalf("DSP tiles = %d entries", got)
	}
	pts := s.Points()
	if len(pts) != 3 || pts[0] != grid.Pt(0, 0) || pts[2] != grid.Pt(2, 0) {
		t.Fatalf("Points = %v", pts)
	}
}

func TestShapeTransformPreservesKinds(t *testing.T) {
	s := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.BRAM},
		{grid.Pt(1, 0), fabric.CLB},
		{grid.Pt(1, 1), fabric.CLB},
	})
	r := s.Transform(grid.Rot180)
	if r.Size() != s.Size() {
		t.Fatal("transform changed size")
	}
	if r.Histogram() != s.Histogram() {
		t.Fatal("transform changed histogram")
	}
	// BRAM at (0,0) maps under rot180 within the 2x2 normalised box to
	// (1,1).
	brams := tilesOfKind(r, fabric.BRAM)
	if len(brams) != 1 || brams[0] != grid.Pt(1, 1) {
		t.Fatalf("rot180 BRAM position = %v, want (1,1)", brams)
	}
}

func TestShapeTransformRoundTrip(t *testing.T) {
	f := func(seed uint8) bool {
		// Build a deterministic pseudo-random small shape from seed.
		tiles := []Tile{{grid.Pt(0, 0), fabric.CLB}}
		x, y := 0, 0
		v := int(seed)
		for i := 0; i < 6; i++ {
			if v&1 == 0 {
				x++
			} else {
				y++
			}
			v >>= 1
			k := fabric.CLB
			if i == 3 {
				k = fabric.BRAM
			}
			tiles = append(tiles, Tile{grid.Pt(x, y), k})
		}
		s, err := NewShape(tiles)
		if err != nil {
			return true // duplicate walk positions: skip
		}
		return s.Transform(grid.Rot180).Transform(grid.Rot180).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShapeString(t *testing.T) {
	want := "cc\nc."
	if got := lShape().String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestShapeStringNonRect(t *testing.T) {
	s := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.BRAM},
		{grid.Pt(1, 0), fabric.CLB},
	})
	if got := s.String(); got != "bc" {
		t.Fatalf("String = %q, want \"bc\"", got)
	}
}

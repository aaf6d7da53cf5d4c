package module

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
)

func TestGenerateAlternativesDefault(t *testing.T) {
	d := Demand{CLB: 30, BRAM: 2}
	m, err := GenerateAlternatives("m0", d, AlternativeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShapes() != 4 {
		t.Fatalf("NumShapes = %d, want 4 (paper default)", m.NumShapes())
	}
	// Every alternative consumes exactly the demanded resources.
	for i, s := range m.Shapes() {
		if s.Histogram() != d.Histogram() {
			t.Errorf("shape %d histogram %v != demand %v", i, s.Histogram(), d.Histogram())
		}
	}
	// All alternatives are distinct layouts.
	seen := map[string]bool{}
	for _, s := range m.Shapes() {
		if seen[s.Key()] {
			t.Error("duplicate shape survived dedup")
		}
		seen[s.Key()] = true
	}
}

func TestGenerateAlternativesCanonicalOrder(t *testing.T) {
	d := Demand{CLB: 30, BRAM: 2}
	m, err := GenerateAlternatives("m0", d, AlternativeOptions{Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := m.Shape(0)
	// Shape 1 is the 180° rotation of the base layout.
	if !m.Shape(1).Equal(base.Transform(grid.Rot180)) {
		t.Error("shape 1 is not rot180 of base")
	}
	// Shape 2 keeps the bounding box but moves the BRAM column: an
	// internal-layout variant.
	if m.Shape(2).bounds != base.bounds {
		t.Errorf("internal variant changed bounds: %v vs %v", m.Shape(2).bounds, base.bounds)
	}
	// Shape 3 has a different bounding box: an external-layout variant.
	if m.Shape(3).bounds == base.bounds {
		t.Error("external variant kept the bounding box")
	}
}

func TestGenerateAlternativesCounts(t *testing.T) {
	d := Demand{CLB: 25, BRAM: 1}
	for _, count := range []int{1, 2, 4, 8} {
		m, err := GenerateAlternatives("m", d, AlternativeOptions{Count: count})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumShapes() > count {
			t.Errorf("Count=%d yielded %d shapes", count, m.NumShapes())
		}
		if m.NumShapes() == 0 {
			t.Errorf("Count=%d yielded no shapes", count)
		}
	}
	if _, err := GenerateAlternatives("m", d, AlternativeOptions{Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestGenerateAlternativesNoRotation(t *testing.T) {
	d := Demand{CLB: 9, BRAM: 1}
	m, err := GenerateAlternatives("m", d, AlternativeOptions{Count: 8, NoRotation: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.Shapes() {
		for j, o := range m.Shapes() {
			if i < j && s.Transform(grid.Rot180).Equal(o) {
				// Rotated pairs can still coincide by symmetry, but for
				// this demand the synthesised layouts are asymmetric; a
				// rotated duplicate means rotation slipped in.
				t.Errorf("shapes %d and %d are rotations of each other", i, j)
			}
		}
	}
}

func TestGenerateAlternativesCLBOnly(t *testing.T) {
	// CLB-only demands still produce distinct alternatives via uneven
	// column fill and width changes.
	m, err := GenerateAlternatives("m", Demand{CLB: 23}, AlternativeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShapes() < 2 {
		t.Fatalf("CLB-only module has %d shapes, want >= 2", m.NumShapes())
	}
}

func TestGenerateAlternativesErrors(t *testing.T) {
	if _, err := GenerateAlternatives("m", Demand{}, AlternativeOptions{}); err == nil {
		t.Error("empty demand accepted")
	}
	if _, err := GenerateAlternatives("m", Demand{CLB: -2}, AlternativeOptions{}); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestGenerateAlternativesBaseWidthOverride(t *testing.T) {
	m, err := GenerateAlternatives("m", Demand{CLB: 24, BRAM: 1},
		AlternativeOptions{Count: 1, BaseWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Shape(0).W(); got != 3 {
		t.Fatalf("base width = %d, want 3", got)
	}
	_ = fabric.CLB
}

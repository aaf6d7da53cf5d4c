package module

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
)

func twoShapes() (*Shape, *Shape) {
	a := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.CLB},
		{grid.Pt(1, 0), fabric.CLB},
	})
	b := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.CLB},
		{grid.Pt(0, 1), fabric.CLB},
	})
	return a, b
}

func TestNewModuleValidation(t *testing.T) {
	a, _ := twoShapes()
	if _, err := NewModule(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewModule("m"); err == nil {
		t.Error("zero shapes accepted")
	}
	if _, err := NewModule("m", nil); err == nil {
		t.Error("nil shape accepted")
	}
	m, err := NewModule("m", a)
	if err != nil || m.Name() != "m" || m.NumShapes() != 1 {
		t.Fatalf("valid module rejected: %v", err)
	}
}

func TestModuleDeduplicatesShapes(t *testing.T) {
	a, b := twoShapes()
	aCopy := MustShape(slices.Clone(a.Tiles()))
	m, err := NewModule("m", a, aCopy, b, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShapes() != 2 {
		t.Fatalf("NumShapes = %d, want 2 after dedup", m.NumShapes())
	}
	if !m.Shape(0).Equal(a) || !m.Shape(1).Equal(b) {
		t.Fatal("dedup reordered shapes")
	}
}

func TestModuleWithShapes(t *testing.T) {
	a, b := twoShapes()
	m, err := NewModule("m", a, b)
	if err != nil {
		t.Fatal(err)
	}
	only, err := m.WithShapes(1)
	if err != nil {
		t.Fatal(err)
	}
	if only.NumShapes() != 1 || !only.Shape(0).Equal(b) {
		t.Fatal("WithShapes(1) wrong")
	}
	if _, err := m.WithShapes(); err == nil {
		t.Error("WithShapes() accepted")
	}
	if _, err := m.WithShapes(2); err == nil {
		t.Error("out-of-range index accepted")
	}
	first := m.FirstShapeOnly()
	if first.NumShapes() != 1 || !first.Shape(0).Equal(a) {
		t.Fatal("FirstShapeOnly wrong")
	}
	// Original module unchanged.
	if m.NumShapes() != 2 {
		t.Fatal("WithShapes mutated the source module")
	}
}

func TestModuleEnvelope(t *testing.T) {
	small := MustShape([]Tile{{grid.Pt(0, 0), fabric.CLB}})
	big := MustShape([]Tile{
		{grid.Pt(0, 0), fabric.CLB},
		{grid.Pt(1, 0), fabric.CLB},
		{grid.Pt(2, 0), fabric.BRAM},
	})
	m, err := NewModule("m", small, big)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Envelope()
	if lo[fabric.CLB] != 1 || hi[fabric.CLB] != 2 {
		t.Fatalf("CLB envelope %d..%d, want 1..2", lo[fabric.CLB], hi[fabric.CLB])
	}
	if lo[fabric.BRAM] != 0 || hi[fabric.BRAM] != 1 {
		t.Fatalf("BRAM envelope %d..%d, want 0..1", lo[fabric.BRAM], hi[fabric.BRAM])
	}
	if m.MinSize() != 1 {
		t.Fatalf("MinSize = %d, want 1", m.MinSize())
	}
	if !strings.Contains(m.String(), "2 shapes") {
		t.Fatalf("String = %q", m.String())
	}
}

func TestModuleStringEqualEnvelope(t *testing.T) {
	a, b := twoShapes()
	m, err := NewModule("m", a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "CLB:2") || strings.Contains(s, "..") {
		t.Fatalf("String = %q, want single envelope with CLB:2", s)
	}
}

// Package core implements the paper's module placer: given a
// heterogeneous partial region and a set of modules with design
// alternatives, it computes a placement minimising the occupied height —
// and thereby maximising average resource utilization — by constraint
// programming over the geost kernel.
//
// The constraint model follows Section III of the paper:
//
//   - M_a (inside the region) and M_b (resource-type match) are fused
//     into per-shape valid-anchor bitmaps, which an AnchorTable computes
//     64 anchors at a time; Fit/Fits check all three constraints for
//     one shape at one anchor and are the one oracle that results and
//     audits pass through. The table is only a precomputation, and a
//     differential fuzz test pins it to Fits;
//   - M_c (non-overlap) is the geost kernel's per-object forward-checking
//     filter;
//   - the objective (eq. 6) is the geost occupied-height variable,
//     minimised by branch-and-bound.
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/geost"
	"repro/internal/grid"
	"repro/internal/module"
)

// Constraint is one of the paper's placement constraints (Section III),
// in the order Fit checks them per tile.
type Constraint uint8

// The placement constraints.
const (
	InRegion      Constraint = iota + 1 // M_a: every tile inside the region
	ResourceMatch                       // M_b: every tile on its own resource kind
	NonOverlap                          // M_c: no tile on an occupied tile
)

// String returns "M_a", "M_b" or "M_c".
func (c Constraint) String() string { return [...]string{"none", "M_a", "M_b", "M_c"}[c] }

// FitError reports the first tile of a shape, in canonical tile order,
// that breaks a placement constraint: the constraint, the tile's region
// coordinate, and the tile's kind against the region's kind under it.
type FitError struct {
	Violated  Constraint
	At        grid.Point
	Need, Got fabric.Kind
}

// Error implements error.
func (e *FitError) Error() string {
	what := "already occupied"
	switch e.Violated {
	case InRegion:
		what = "outside region"
	case ResourceMatch:
		what = fmt.Sprintf("on %s, needs %s", e.Got, e.Need)
	}
	return fmt.Sprintf("tile %v %s (violates %v)", e.At, what, e.Violated)
}

// Fits reports whether shape s anchored at at satisfies M_a, M_b and
// M_c on region r with occupancy occ (nil means an empty fabric). It is
// the allocation-free form of Fit: the single placement oracle that
// result validation and every online audit share, and that the anchor
// table is tested against.
func Fits(r *fabric.Region, occ *grid.Bitmap, s *module.Shape, at grid.Point) bool {
	c, _ := fit(r, occ, s, at)
	return c == 0
}

// Fit is Fits with a *FitError naming the violated constraint and the
// first offending tile, or nil when the shape fits.
func Fit(r *fabric.Region, occ *grid.Bitmap, s *module.Shape, at grid.Point) error {
	c, t := fit(r, occ, s, at)
	if c == 0 {
		return nil
	}
	p := t.At.Add(at)
	return &FitError{Violated: c, At: p, Need: t.Kind, Got: r.KindAt(p.X, p.Y)}
}

// fit checks the tiles of s at anchor at in canonical order — inside
// the region, on a matching resource, unoccupied — and returns the
// first violated constraint with its tile, or 0 when all hold.
func fit(r *fabric.Region, occ *grid.Bitmap, s *module.Shape, at grid.Point) (Constraint, module.Tile) {
	w, h := r.W(), r.H()
	for _, t := range s.Tiles() {
		x, y := at.X+t.At.X, at.Y+t.At.Y
		switch {
		case x < 0 || y < 0 || x >= w || y >= h:
			return InRegion, t
		case r.KindAt(x, y) != t.Kind:
			return ResourceMatch, t
		case occ != nil && occ.Get(x, y):
			return NonOverlap, t
		}
	}
	return 0, module.Tile{}
}

// ValidAnchors computes the anchor positions where shape s can be
// placed on region r: anchor (x, y) is valid iff Fits on an empty
// fabric, i.e. every tile of s, translated by (x, y), lands on a region
// tile of exactly the tile's resource kind. This realises the paper's
// constraints M_a ∧ M_b — the geost extension of boxes and forbidden
// regions with a resource property. To compute the anchors of many
// shapes on one region, build an AnchorTable once instead.
func ValidAnchors(r *fabric.Region, s *module.Shape) *grid.Bitmap {
	return NewAnchorTable(r).Anchors(s)
}

// AnchorTable computes ValidAnchors for many shapes on one region. It
// holds the region's tiles of each resource kind as a bitmap, so that
// one AND of a kind row tests one tile of a shape at 64 anchors.
type AnchorTable struct {
	w, h  int
	kinds [len(fabric.Histogram{})]*grid.Bitmap // by fabric.Kind
}

// NewAnchorTable builds the per-kind tile bitmaps of r.
func NewAnchorTable(r *fabric.Region) *AnchorTable {
	t := &AnchorTable{w: r.W(), h: r.H()}
	for k := range t.kinds {
		t.kinds[k] = grid.NewBitmap(t.w, t.h)
	}
	for y := 0; y < t.h; y++ {
		for x := 0; x < t.w; x++ {
			if k := r.KindAt(x, y); k.Valid() {
				t.kinds[k].Set(x, y, true)
			}
		}
	}
	return t
}

// Anchors returns the valid-anchor bitmap of s (see ValidAnchors). For
// each anchor row it takes the anchors in chunks of 64 columns and ANDs
// together, per tile, the row of the tile's kind shifted by the tile's
// offset; a chunk stops at its first tile that no anchor survives. Kind
// rows read clear outside the region, so an anchor that puts a tile
// there drops out of the AND too (M_a).
func (t *AnchorTable) Anchors(s *module.Shape) *grid.Bitmap {
	b := grid.NewBitmap(t.w, t.h)
	for y := 0; y <= t.h-s.H(); y++ {
		for x := 0; x <= t.w-s.W(); x += 64 {
			acc := ^uint64(0)
			for _, tl := range s.Tiles() {
				if acc &= t.kinds[tl.Kind].Row64(x+tl.At.X, y+tl.At.Y); acc == 0 {
					break
				}
			}
			b.OrRow64(x, y, acc)
		}
	}
	return b
}

// ShapeGeom converts a module shape into the geost kernel's geometry,
// including its valid-anchor bitmap.
func (t *AnchorTable) ShapeGeom(s *module.Shape) geost.ShapeGeom {
	return geost.ShapeGeom{
		Points: s.Points(),
		W:      s.W(),
		H:      s.H(),
		Valid:  t.Anchors(s),
		Hist:   s.Histogram(),
	}
}

// CapacityPrefix returns, for every h in 0..r.H(), the per-kind tile
// capacity of the region's first h rows. It feeds the geost kernel's
// capacity-based height bound.
func CapacityPrefix(r *fabric.Region) []fabric.Histogram {
	out := make([]fabric.Histogram, r.H()+1)
	for y := 0; y < r.H(); y++ {
		out[y+1] = out[y]
		for x := 0; x < r.W(); x++ {
			out[y+1].Add(r.KindAt(x, y))
		}
	}
	return out
}

// Package module implements the paper's module formulation (Section
// III.A): tiles with resource types, tilesets, shapes (one physical
// layout of a module) and modules (sets of functionally equivalent
// shapes — the design alternatives). It also provides layout synthesis
// and design-alternative generation used by the evaluation workloads.
package module

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fabric"
	"repro/internal/grid"
)

// Tile is one unit cell of a shape: a relative origin coordinate pair
// plus the resource type the cell must be placed on (the paper's
// t_{x,y,k}).
type Tile struct {
	At   grid.Point
	Kind fabric.Kind
}

// String returns "(x,y):KIND".
func (t Tile) String() string { return fmt.Sprintf("%v:%s", t.At, t.Kind) }

// Shape is one possible physical implementation of a module: a non-empty
// set of tiles in relative coordinates, normalised so its bounding box
// starts at (0, 0) and its tiles are in canonical order. Shapes are
// immutable after construction.
//
// The paper groups a shape's tiles into per-kind tilesets; Shape exposes
// the same view through TilesOfKind, but stores a flat normalised list,
// which is what the placer and the geost kernel consume.
type Shape struct {
	tiles  []Tile
	points []grid.Point // tile coordinates, parallel to tiles
	bounds grid.Rect
	hist   fabric.Histogram
	key    string
}

// NewShape builds a normalised shape from tiles. It rejects empty tile
// sets, duplicate coordinates and tiles whose kind cannot host module
// logic (module tiles land on CLB/BRAM/DSP only).
func NewShape(tiles []Tile) (*Shape, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("module: shape must contain at least one tile")
	}
	ts := make([]Tile, len(tiles))
	copy(ts, tiles)
	minX, minY := ts[0].At.X, ts[0].At.Y
	for _, t := range ts {
		if !t.Kind.Placeable() {
			return nil, fmt.Errorf("module: tile %v has unplaceable kind %s", t.At, t.Kind)
		}
		minX, minY = min(minX, t.At.X), min(minY, t.At.Y)
	}
	s := &Shape{tiles: ts}
	for i := range s.tiles {
		s.tiles[i].At = s.tiles[i].At.Sub(grid.Pt(minX, minY))
		s.hist.Add(s.tiles[i].Kind)
	}
	// Tiles from a shape's own Tiles (a client echoing a module back)
	// arrive in canonical order already; checking costs less than
	// sorting.
	for i := 1; i < len(s.tiles); i++ {
		if compareTiles(s.tiles[i-1], s.tiles[i]) > 0 {
			slices.SortFunc(s.tiles, compareTiles)
			break
		}
	}
	// Sorting makes tiles at one coordinate adjacent.
	pts := make([]grid.Point, len(s.tiles))
	for i, t := range s.tiles {
		if i > 0 && t.At == pts[i-1] {
			return nil, fmt.Errorf("module: duplicate tile at %v", t.At.Add(grid.Pt(minX, minY)))
		}
		pts[i] = t.At
	}
	s.points = pts
	s.bounds = grid.BoundsOf(pts)
	s.key = shapeKey(s.tiles)
	return s, nil
}

// compareTiles orders tiles by position (row, then column), then kind.
func compareTiles(a, b Tile) int {
	if a.At != b.At {
		if a.At.Less(b.At) {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Kind, b.Kind)
}

// shapeKey renders sorted tiles as "x,y,kind;" per tile.
func shapeKey(tiles []Tile) string {
	b := make([]byte, 0, 8*len(tiles))
	for _, t := range tiles {
		b = strconv.AppendInt(b, int64(t.At.X), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.At.Y), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.Kind), 10)
		b = append(b, ';')
	}
	return string(b)
}

// MustShape is NewShape panicking on error, for statically known shapes.
func MustShape(tiles []Tile) *Shape {
	s, err := NewShape(tiles)
	if err != nil {
		panic(err)
	}
	return s
}

// Tiles returns the normalised tile list. Callers must not mutate it.
func (s *Shape) Tiles() []Tile { return s.tiles }

// Points returns the tile coordinates (without kinds) in canonical
// order. The slice is freshly allocated on every call.
func (s *Shape) Points() []grid.Point { return append([]grid.Point(nil), s.points...) }

// PointsAt returns the absolute tile coordinates of the shape anchored
// at at, in canonical order. The slice is freshly allocated on every
// call.
func (s *Shape) PointsAt(at grid.Point) []grid.Point { return grid.Translate(s.points, at) }

// Size returns the number of tiles.
func (s *Shape) Size() int { return len(s.tiles) }

// W returns the bounding-box width.
func (s *Shape) W() int { return s.bounds.W() }

// H returns the bounding-box height.
func (s *Shape) H() int { return s.bounds.H() }

// Histogram returns per-kind tile counts.
func (s *Shape) Histogram() fabric.Histogram { return s.hist }

// Key returns a canonical fingerprint: two shapes are geometrically
// identical (same tiles, same kinds) iff their keys are equal.
func (s *Shape) Key() string { return s.key }

// Equal reports whether s and o have identical normalised tiles.
func (s *Shape) Equal(o *Shape) bool { return o != nil && s.key == o.key }

// Transform returns the shape mapped under t and renormalised. The
// resource kind of each tile is preserved.
func (s *Shape) Transform(t grid.Transform) *Shape {
	tiles := make([]Tile, len(s.tiles))
	for i, tl := range s.tiles {
		tiles[i] = Tile{At: t.Apply(tl.At), Kind: tl.Kind}
	}
	out := MustShape(tiles)
	return out
}

// String renders the shape as a small resource map, top row first, with
// '.' for cells of the bounding box not covered by a tile.
func (s *Shape) String() string {
	cover := make(map[grid.Point]fabric.Kind, len(s.tiles))
	for _, t := range s.tiles {
		cover[t.At] = t.Kind
	}
	var sb strings.Builder
	for y := s.bounds.MaxY - 1; y >= 0; y-- {
		for x := 0; x < s.bounds.MaxX; x++ {
			if k, ok := cover[grid.Pt(x, y)]; ok {
				sb.WriteByte(k.Rune())
			} else {
				sb.WriteByte('.')
			}
		}
		if y > 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

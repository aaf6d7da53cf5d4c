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
// The paper groups a shape's tiles into per-kind tilesets; Shape stores
// a flat normalised list instead, which is what the placer and the geost
// kernel consume, each tile carrying its kind, and Histogram gives the
// per-kind tile counts. Points and keys are derived from the list.
type Shape struct {
	tiles  []Tile
	bounds grid.Rect
	hist   fabric.Histogram
}

// NewShape builds a normalised shape from tiles, which it takes over: it
// normalises the list in place and keeps it, whatever it returns. It
// rejects empty tile sets, duplicate coordinates and tiles whose kind
// cannot host module logic (module tiles land on CLB/BRAM/DSP only).
func NewShape(tiles []Tile) (*Shape, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("module: shape must contain at least one tile")
	}
	s := &Shape{tiles: tiles}
	off := tiles[0].At
	for _, t := range tiles {
		if !t.Kind.Placeable() {
			return nil, fmt.Errorf("module: tile %v has unplaceable kind %s", t.At, t.Kind)
		}
		off = grid.Pt(min(off.X, t.At.X), min(off.Y, t.At.Y))
		s.hist.Add(t.Kind)
	}
	// Tiles from a shape's own Tiles (a client echoing a module back)
	// arrive in canonical order already; checking costs less than
	// sorting, and leaves such a list unwritten.
	for i := 1; i < len(tiles); i++ {
		if compareTiles(tiles[i-1], tiles[i]) > 0 {
			slices.SortFunc(tiles, compareTiles)
			break
		}
	}
	// Sorting makes tiles at one coordinate adjacent.
	for i := range tiles {
		p := tiles[i].At
		if i > 0 && p == tiles[i-1].At.Add(off) {
			return nil, fmt.Errorf("module: duplicate tile at %v", p)
		}
		if p = p.Sub(off); off != (grid.Point{}) {
			tiles[i].At = p
		}
		s.bounds.MaxX, s.bounds.MaxY = max(s.bounds.MaxX, p.X+1), max(s.bounds.MaxY, p.Y+1)
	}
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

// AppendKey appends the shape's canonical key, "x,y,kind;" per tile in
// canonical order, to b.
func (s *Shape) AppendKey(b []byte) []byte {
	for _, t := range s.tiles {
		b = strconv.AppendInt(b, int64(t.At.X), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.At.Y), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.Kind), 10)
		b = append(b, ';')
	}
	return b
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
func (s *Shape) Points() []grid.Point { return s.PointsAt(grid.Point{}) }

// PointsAt returns the absolute tile coordinates of the shape anchored
// at at, in canonical order. The slice is freshly allocated on every
// call.
func (s *Shape) PointsAt(at grid.Point) []grid.Point {
	ps := make([]grid.Point, len(s.tiles))
	for i, t := range s.tiles {
		ps[i] = t.At.Add(at)
	}
	return ps
}

// Size returns the number of tiles.
func (s *Shape) Size() int { return len(s.tiles) }

// W returns the bounding-box width.
func (s *Shape) W() int { return s.bounds.W() }

// H returns the bounding-box height.
func (s *Shape) H() int { return s.bounds.H() }

// Histogram returns per-kind tile counts.
func (s *Shape) Histogram() fabric.Histogram { return s.hist }

// Key returns a canonical fingerprint, rendered by AppendKey on every
// call: two shapes are geometrically identical (same tiles, same kinds)
// iff their keys are equal.
func (s *Shape) Key() string { return string(s.AppendKey(make([]byte, 0, 8*len(s.tiles)))) }

// Equal reports whether s and o have identical normalised tiles.
func (s *Shape) Equal(o *Shape) bool { return o != nil && slices.Equal(s.tiles, o.tiles) }

// Transform returns the shape mapped under t and renormalised. The
// resource kind of each tile is preserved.
func (s *Shape) Transform(t grid.Transform) *Shape {
	tiles := make([]Tile, len(s.tiles))
	for i, tl := range s.tiles {
		tiles[i] = Tile{At: t.Apply(tl.At), Kind: tl.Kind}
	}
	return MustShape(tiles)
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

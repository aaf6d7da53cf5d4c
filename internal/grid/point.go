// Package grid provides the discrete-geometry substrate used by the
// fabric model, the module model and the geost constraint kernel: integer
// points, rectangles, rigid transforms on the unit grid, and dense
// occupancy bitmaps.
//
// All coordinates are integer tile coordinates. The positive x axis points
// right and the positive y axis points up, matching the column/row layout
// of FPGA fabrics where y indexes rows of a reconfigurable region.
package grid

import "fmt"

// Point is an integer coordinate pair on the tile grid.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{X: x, Y: y} }

// Add returns the translation of p by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the translation of p by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Less orders points lexicographically by (Y, X). It provides the
// canonical ordering used when normalising tile sets.
func (p Point) Less(q Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

// String returns "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

package grid

import "fmt"

// Rect is a half-open axis-aligned rectangle of tiles:
// {(x, y) | MinX <= x < MaxX, MinY <= y < MaxY}.
// A Rect with MaxX <= MinX or MaxY <= MinY is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// RectXYWH builds a rectangle from an origin and a size. Negative sizes
// yield an empty rectangle.
func RectXYWH(x, y, w, h int) Rect {
	return Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// W returns the width of r (0 if empty).
func (r Rect) W() int {
	if r.MaxX <= r.MinX {
		return 0
	}
	return r.MaxX - r.MinX
}

// H returns the height of r (0 if empty).
func (r Rect) H() int {
	if r.MaxY <= r.MinY {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the number of tiles covered by r.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether r contains no tiles.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// Intersect returns the common tiles of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share at least one tile.
func (r Rect) Overlaps(s Rect) bool {
	return !r.Empty() && !s.Empty() &&
		r.MinX < s.MaxX && s.MinX < r.MaxX &&
		r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Contains reports whether every tile of s is a tile of r. An empty s is
// contained in every rectangle.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// Points returns all tiles of r in canonical (Y, X) order.
func (r Rect) Points() []Point {
	if r.Empty() {
		return nil
	}
	out := make([]Point, 0, r.Area())
	for y := r.MinY; y < r.MaxY; y++ {
		for x := r.MinX; x < r.MaxX; x++ {
			out = append(out, Point{x, y})
		}
	}
	return out
}

// String returns "[minX,minY)x[maxX,maxY)" style text.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

package grid

// Transform is a rigid transform of the tile grid: one of the eight
// symmetries of the square (four rotations, optionally composed with a
// horizontal mirror). Transforms act on points; shapes are transformed by
// transforming their tiles and renormalising to a non-negative origin.
//
// Only Identity and Rot180 preserve the aspect ratio of rectangular
// dedicated resources such as BRAM columns, which is why the paper's
// module alternatives are restricted to 180-degree rotations plus layout
// changes; the full group is provided for generality and for tests.
type Transform uint8

// The eight grid symmetries. MirrorX flips x (reflection about the y
// axis); the composed forms apply the rotation first, then the mirror.
const (
	Identity Transform = iota
	Rot90
	Rot180
	Rot270
	MirrorX
	MirrorXRot90
	MirrorXRot180
	MirrorXRot270
	numTransforms
)

var transformNames = [numTransforms]string{
	"identity", "rot90", "rot180", "rot270",
	"mirrorx", "mirrorx-rot90", "mirrorx-rot180", "mirrorx-rot270",
}

// String returns a stable lowercase name for t.
func (t Transform) String() string {
	if t < numTransforms {
		return transformNames[t]
	}
	return "invalid-transform"
}

// Apply maps p under t (about the origin).
func (t Transform) Apply(p Point) Point {
	switch t {
	case Identity:
		return p
	case Rot90:
		return Point{-p.Y, p.X}
	case Rot180:
		return Point{-p.X, -p.Y}
	case Rot270:
		return Point{p.Y, -p.X}
	case MirrorX:
		return Point{-p.X, p.Y}
	case MirrorXRot90:
		return Point{p.Y, p.X}
	case MirrorXRot180:
		return Point{p.X, -p.Y}
	case MirrorXRot270:
		return Point{-p.Y, -p.X}
	}
	return p
}

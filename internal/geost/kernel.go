// Package geost is a geometrical constraint kernel in the spirit of
// Beldiceanu et al.'s geost: polymorphic objects (an object may take one
// of several shapes), placement variables over a bounded 2D space,
// non-overlap filtering, and an occupied-height objective. Following the
// paper reproduced by this repository, the kernel is extended with a
// resource property: every shape carries a bitmap of anchor positions
// compatible with the heterogeneous resource layout of the space, and a
// per-kind resource histogram used for capacity-based bound reasoning.
//
// The kernel models each object with a single placement variable whose
// values encode (shape id, y, x); the paper's separate x/y/shape-id
// variables are recoverable through Decode. One variable per object
// makes the resource-compatibility constraint (the paper's extension of
// geost boxes with a resource type) a plain domain restriction, and
// makes non-overlap a value filter.
package geost

import (
	"fmt"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

// ShapeGeom is the kernel's view of one shape alternative: its occupied
// cells, bounding box, the anchors where it may be placed (already
// restricted to the space's bounds and resource layout — constraints
// M_a ∧ M_b of the paper), and its resource demand.
type ShapeGeom struct {
	Points []grid.Point
	W, H   int
	Valid  *grid.Bitmap
	Hist   fabric.Histogram
}

func (g *ShapeGeom) validate(spaceW, spaceH int) error {
	if len(g.Points) == 0 {
		return fmt.Errorf("geost: shape with no points")
	}
	if g.W <= 0 || g.H <= 0 {
		return fmt.Errorf("geost: shape with empty bounds %dx%d", g.W, g.H)
	}
	for _, p := range g.Points {
		if p.X < 0 || p.Y < 0 || p.X >= g.W || p.Y >= g.H {
			return fmt.Errorf("geost: shape point %v outside its %dx%d bounds", p, g.W, g.H)
		}
	}
	if g.Valid == nil {
		return fmt.Errorf("geost: shape without valid-anchor bitmap")
	}
	if g.Valid.W() != spaceW || g.Valid.H() != spaceH {
		return fmt.Errorf("geost: valid-anchor bitmap %dx%d does not match space %dx%d",
			g.Valid.W(), g.Valid.H(), spaceW, spaceH)
	}
	return nil
}

// Object is a placeable entity: a set of shape alternatives plus the
// placement variable. Top is an auxiliary variable equal to the object's
// topmost occupied row + 1 (its contribution to occupied height).
type Object struct {
	Name   string
	Shapes []ShapeGeom
	Place  *csp.Var
	Top    *csp.Var

	k  *Kernel
	id int

	// rows holds every shape's footprint as per-row column masks, in
	// one block: word c of row r of shape sid is
	// rows[sid*rowStride+r*rowWords+c], and bit i of it marks the tile
	// at column 64c+i. Built by AddObject and read-only afterwards.
	rows                []uint64
	rowWords, rowStride int
}

// Kernel owns the 2D space and the objects placed in it.
type Kernel struct {
	st      *csp.Store
	w, h    int
	objects []*Object

	// scratch is a reusable occupancy bitmap for non-overlap filtering,
	// all clear between propagator runs; comp accumulates compulsory
	// regions.
	scratch, comp *grid.Bitmap
}

// New creates a kernel over a w×h space backed by st. It panics on
// non-positive dimensions: an empty space is a caller bug.
func New(st *csp.Store, w, h int) *Kernel {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geost: invalid space %dx%d", w, h))
	}
	return &Kernel{st: st, w: w, h: h, scratch: grid.NewBitmap(w, h), comp: grid.NewBitmap(w, h)}
}

// W returns the space width.
func (k *Kernel) W() int { return k.w }

// H returns the space height.
func (k *Kernel) H() int { return k.h }

// Objects returns the objects added so far.
func (k *Kernel) Objects() []*Object { return k.objects }

// encode packs (sid, x, y) into a placement value, the inverse of
// Object.Decode. Values encode identically across objects of one
// kernel, which is what makes placements of interchangeable objects
// directly comparable (symmetry-breaking lex orders rely on this).
func (k *Kernel) encode(sid, x, y int) int { return (sid*k.h+y)*k.w + x }

// Decode unpacks a placement value of this object.
func (o *Object) Decode(val int) (sid, x, y int) {
	x = val % o.k.w
	rest := val / o.k.w
	y = rest % o.k.h
	sid = rest / o.k.h
	return sid, x, y
}

// topOf returns the top row bound (y + shape height) of a placement
// value.
func (o *Object) topOf(val int) int {
	sid, _, y := o.Decode(val)
	return y + o.Shapes[sid].H
}

// TopOf returns the top row bound (y + shape height) of a placement
// value: the object's contribution to the occupied height were it
// placed there.
func (o *Object) TopOf(val int) int { return o.topOf(val) }

// Assigned reports whether the object's placement is fixed.
func (o *Object) Assigned() bool { return o.Place.Assigned() }

// Placement returns the assigned (sid, x, y); it panics if unassigned.
func (o *Object) Placement() (sid, x, y int) { return o.Decode(o.Place.Value()) }

// ShapePresent reports whether shape sid still has candidate placements.
func (o *Object) ShapePresent(sid int) bool {
	lo := o.k.encode(sid, 0, 0)
	hi := o.k.encode(sid+1, 0, 0) - 1
	return o.Place.Domain().AnyInRange(lo, hi)
}

// MinDemand returns, per kind, the minimum demand over the shapes still
// present in the placement domain.
func (o *Object) MinDemand() fabric.Histogram {
	var out fabric.Histogram
	first := true
	for sid := range o.Shapes {
		if !o.ShapePresent(sid) {
			continue
		}
		h := o.Shapes[sid].Hist
		if first {
			out = h
			first = false
			continue
		}
		for k := range out {
			if h[k] < out[k] {
				out[k] = h[k]
			}
		}
	}
	return out
}

// AddObject registers an object with the given shape alternatives. The
// placement domain is the union over shapes of their valid anchors; an
// object with no feasible placement at all is rejected here rather than
// discovered during search.
func (k *Kernel) AddObject(name string, shapes []ShapeGeom) (*Object, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("geost: object %s has no shapes", name)
	}
	var vals []int
	minTop := k.h + 1
	maxTop := 0
	for sid := range shapes {
		g := &shapes[sid]
		if err := g.validate(k.w, k.h); err != nil {
			return nil, fmt.Errorf("geost: object %s shape %d: %w", name, sid, err)
		}
		for y := 0; y <= k.h-g.H; y++ {
			for x := 0; x <= k.w-g.W; x++ {
				if g.Valid.Get(x, y) {
					vals = append(vals, k.encode(sid, x, y))
					if t := y + g.H; t < minTop {
						minTop = t
					}
					if t := y + g.H; t > maxTop {
						maxTop = t
					}
				}
			}
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("geost: object %s has no feasible placement", name)
	}
	o := &Object{
		Name:   name,
		Shapes: shapes,
		k:      k,
		id:     len(k.objects),
	}
	o.buildRows()
	o.Place = k.st.NewVar("place("+name+")", csp.NewDomainValues(vals...))
	o.Top = k.st.NewVarRange("top("+name+")", minTop, maxTop)
	k.st.Post(&topLink{o: o}, o.Place, o.Top)
	k.objects = append(k.objects, o)
	return o, nil
}

// buildRows fills o.rows from the shapes' points (see Object.rows).
func (o *Object) buildRows() {
	maxW, maxH := 0, 0
	for _, g := range o.Shapes {
		maxW, maxH = max(maxW, g.W), max(maxH, g.H)
	}
	o.rowWords = (maxW + 63) / 64
	o.rowStride = maxH * o.rowWords
	o.rows = make([]uint64, len(o.Shapes)*o.rowStride)
	for sid, g := range o.Shapes {
		for _, p := range g.Points {
			o.rows[sid*o.rowStride+p.Y*o.rowWords+p.X>>6] |= 1 << uint(p.X&63)
		}
	}
}

// hits reports whether placement val of o covers a set bit of occ.
// box bounds the set bits of occ, so a bounding-box test rejects most
// placements, and only the shape rows inside box are tested, one AND
// per row word.
func (o *Object) hits(val int, occ *grid.Bitmap, box grid.Rect) bool {
	sid, x, y := o.Decode(val)
	g := &o.Shapes[sid]
	if !box.Overlaps(grid.RectXYWH(x, y, g.W, g.H)) {
		return false
	}
	rows := o.rows[sid*o.rowStride:]
	for r := max(0, box.MinY-y); r < min(g.H, box.MaxY-y); r++ {
		for c := 0; c < o.rowWords; c++ {
			if occ.Row64(x+64*c, y+r)&rows[r*o.rowWords+c] != 0 {
				return true
			}
		}
	}
	return false
}

// PostNonOverlap posts non-overlap over all objects (constraint M_c of
// the paper): one forward-checking propagator per object, which prunes
// every other object once that object is assigned. Call it after the
// last AddObject.
func (k *Kernel) PostNonOverlap() {
	for _, o := range k.objects {
		k.st.Post(&nonOverlap{o: o}, o.Place)
	}
}

// PlaceVars returns the placement variables of all objects, in object
// order — the canonical search variables.
func (k *Kernel) PlaceVars() []*csp.Var {
	out := make([]*csp.Var, len(k.objects))
	for i, o := range k.objects {
		out[i] = o.Place
	}
	return out
}

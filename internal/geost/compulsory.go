package geost

import (
	"repro/internal/csp"
	"repro/internal/grid"
)

// Compulsory-part pruning is the signature reasoning of Beldiceanu's
// geost kernel: even before an object is fixed, the intersection of all
// its remaining candidate footprints may be non-empty — cells the object
// will occupy *no matter what*. Other objects can be pruned against that
// compulsory region immediately, long before the object is assigned.
//
// With polymorphic shapes and non-rectangular footprints the compulsory
// region is computed exactly, as the cell-wise AND over the candidate
// footprints. That costs O(|domain| × tiles), so the propagator only
// engages once an object's domain has shrunk below a threshold — early
// in search the intersection is empty anyway.

// compulsoryThreshold is the candidate-count ceiling above which the
// exact compulsory region is not computed.
const compulsoryThreshold = 48

// compulsoryRegion returns the set of cells occupied under every
// remaining placement of o, or nil when the object's domain is too large
// or the intersection is empty. The returned bitmap is freshly
// allocated.
func compulsoryRegion(o *Object) *grid.Bitmap {
	n := o.Place.Size()
	if n == 0 || n > compulsoryThreshold {
		return nil
	}
	var acc *grid.Bitmap
	cur := grid.NewBitmap(o.k.w, o.k.h)
	empty := false
	o.Place.Domain().ForEach(func(val int) bool {
		sid, x, y := o.Decode(val)
		cur.Clear()
		cur.SetPoints(grid.Translate(o.Shapes[sid].Points, grid.Pt(x, y)), true)
		if acc == nil {
			acc = cur.Clone()
		} else {
			acc.AndNot(invert(cur))
		}
		if acc.Count() == 0 {
			empty = true
			return false
		}
		return true
	})
	if empty || acc == nil || acc.Count() == 0 {
		return nil
	}
	return acc
}

// invert returns the complement of b (freshly allocated).
func invert(b *grid.Bitmap) *grid.Bitmap {
	out := grid.NewBitmap(b.W(), b.H())
	out.SetRect(grid.RectXYWH(0, 0, b.W(), b.H()), true)
	out.AndNot(b)
	return out
}

// compulsoryPair prunes object b against a's compulsory region and vice
// versa. It watches both placement variables and complements the
// assigned-object forward checking of nonOverlapPair.
type compulsoryPair struct {
	k    *Kernel
	a, b *Object
}

// Name implements csp.Named.
func (p *compulsoryPair) Name() string { return "geost.compulsory" }

func (p *compulsoryPair) Propagate(st *csp.Store) error {
	if err := p.dir(st, p.a, p.b); err != nil {
		return err
	}
	return p.dir(st, p.b, p.a)
}

func (p *compulsoryPair) dir(st *csp.Store, narrow, other *Object) error {
	if narrow.Assigned() {
		return nil // the nonOverlapPair already handles fixed objects
	}
	comp := compulsoryRegion(narrow)
	if comp == nil {
		return nil
	}
	box := boundsOfBitmap(comp)
	return st.FilterDomain(other.Place, func(val int) bool {
		osid, ox, oy := other.Decode(val)
		og := &other.Shapes[osid]
		if !box.Overlaps(grid.RectXYWH(ox, oy, og.W, og.H)) {
			return true
		}
		return !comp.AnyAt(og.Points, grid.Pt(ox, oy))
	})
}

// boundsOfBitmap returns the tight bounding rect of the set bits.
func boundsOfBitmap(b *grid.Bitmap) grid.Rect {
	r := grid.Rect{}
	for y := 0; y < b.H(); y++ {
		for x := 0; x < b.W(); x++ {
			if b.Get(x, y) {
				r = r.Union(grid.RectXYWH(x, y, 1, 1))
			}
		}
	}
	return r
}

// PostCompulsoryNonOverlap adds compulsory-part pruning to all object
// pairs. Call it after PostNonOverlap; it strengthens, not replaces, the
// forward checking.
func (k *Kernel) PostCompulsoryNonOverlap() {
	for i := 0; i < len(k.objects); i++ {
		for j := i + 1; j < len(k.objects); j++ {
			a, b := k.objects[i], k.objects[j]
			k.st.Post(&compulsoryPair{k: k, a: a, b: b}, a.Place, b.Place)
		}
	}
}

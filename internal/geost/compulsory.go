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
// or the intersection is empty. The returned bitmap is the kernel's
// accumulator, valid until the next call.
func compulsoryRegion(o *Object) *grid.Bitmap {
	n := o.Place.Size()
	if n == 0 || n > compulsoryThreshold {
		return nil
	}
	acc, scratch := o.k.comp, o.k.scratch
	first := true
	o.Place.Domain().ForEach(func(val int) bool {
		sid, x, y := o.Decode(val)
		pts, at := o.Shapes[sid].Points, grid.Pt(x, y)
		if first {
			acc.Clear()
			acc.SetPointsAt(pts, at, true)
			first = false
		} else {
			scratch.SetPointsAt(pts, at, true)
			acc.And(scratch)
			scratch.SetPointsAt(pts, at, false)
		}
		return acc.Count() > 0
	})
	if acc.Count() == 0 {
		return nil
	}
	return acc
}

// compulsory prunes every other object against its object's compulsory
// region. It watches only its own placement variable, since the region
// depends only on that domain, and complements the assigned-object
// forward checking of nonOverlap.
type compulsory struct {
	o *Object
}

// Name implements csp.Named.
func (p *compulsory) Name() string { return "geost.compulsory" }

func (p *compulsory) Propagate(st *csp.Store) error {
	o := p.o
	if o.Assigned() {
		return nil // nonOverlap already handles fixed objects
	}
	comp := compulsoryRegion(o)
	if comp == nil {
		return nil
	}
	return o.k.pruneOthers(st, o, comp, comp.Extent())
}

// PostCompulsoryNonOverlap adds compulsory-part pruning, one propagator
// per object. Call it after PostNonOverlap; it strengthens, not
// replaces, the forward checking.
func (k *Kernel) PostCompulsoryNonOverlap() {
	for _, o := range k.objects {
		k.st.Post(&compulsory{o: o}, o.Place)
	}
}

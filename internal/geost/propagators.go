package geost

import (
	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

// topLink channels between an object's placement variable and its Top
// variable: Top = y + height(shape). Bounds of Top are maintained from
// the placement domain, and placements incompatible with Top's bounds
// are pruned (this is how a branch-and-bound cap on total height reaches
// into placement domains).
type topLink struct {
	o *Object
}

// Name implements csp.Named.
func (p *topLink) Name() string { return "geost.top-link" }

func (p *topLink) Propagate(st *csp.Store) error {
	o := p.o
	lo, hi := o.k.h+1, -1
	o.Place.Domain().ForEach(func(val int) bool {
		t := o.topOf(val)
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
		return true
	})
	if err := st.SetMin(o.Top, lo); err != nil {
		return err
	}
	if err := st.SetMax(o.Top, hi); err != nil {
		return err
	}
	tLo, tHi := o.Top.Min(), o.Top.Max()
	if tLo > lo || tHi < hi {
		return st.FilterDomain(o.Place, func(val int) bool {
			t := o.topOf(val)
			return t >= tLo && t <= tHi
		})
	}
	return nil
}

// nonOverlap enforces that one object shares no tile with any other
// object, by forward checking: once the object is assigned, every other
// object's candidate placements that collide with it are pruned —
// assigned ones included, so a collision empties a singleton and fails.
// It watches only its own placement variable. Filtering against a fixed
// footprint is idempotent, so one run per assignment reaches the same
// fixpoint as re-running whenever another object's domain moves.
type nonOverlap struct {
	o *Object
}

// Name implements csp.Named.
func (p *nonOverlap) Name() string { return "geost.non-overlap" }

func (p *nonOverlap) Propagate(st *csp.Store) error {
	o := p.o
	if !o.Assigned() {
		return nil
	}
	sid, x, y := o.Placement()
	g := &o.Shapes[sid]
	at := grid.Pt(x, y)

	// Paint the fixed object into the kernel scratch bitmap and unpaint
	// it before returning, so the scratch stays clean for the next run.
	scratch := o.k.scratch
	scratch.SetPointsAt(g.Points, at, true)
	err := o.k.pruneOthers(st, o, scratch, grid.RectXYWH(x, y, g.W, g.H))
	scratch.SetPointsAt(g.Points, at, false)
	return err
}

// pruneOthers removes, from every object but self, the placements whose
// footprint hits a set bit of occ. box bounds the set bits of occ: a
// bounding-box test rejects most candidates before the per-tile test.
func (k *Kernel) pruneOthers(st *csp.Store, self *Object, occ *grid.Bitmap, box grid.Rect) error {
	for _, other := range k.objects {
		if other == self {
			continue
		}
		if err := st.FilterDomain(other.Place, func(val int) bool {
			osid, ox, oy := other.Decode(val)
			og := &other.Shapes[osid]
			if !box.Overlaps(grid.RectXYWH(ox, oy, og.W, og.H)) {
				return true
			}
			return !occ.AnyAt(og.Points, grid.Pt(ox, oy))
		}); err != nil {
			return err
		}
	}
	return nil
}

// heightBound implements capacity-based bound reasoning for the
// occupied-height objective: every tile of every object lies strictly
// below the height variable, so for each resource kind the capacity of
// the space's first h rows must cover the objects' total minimum
// demand. The propagator raises the height variable's lower bound to the
// smallest h whose capacity suffices — and thereby fails fast when a
// branch-and-bound cap is unachievable.
type heightBound struct {
	k      *Kernel
	height *csp.Var
	// capPrefix[h][kind] = tiles of that kind in rows < h.
	capPrefix []fabric.Histogram
}

// PostHeightObjective creates the occupied-height variable: height =
// max over objects of Top, plus capacity-based lower-bound reasoning
// against capPrefix (capPrefix[h] must hold per-kind tile counts of the
// space's first h rows; len(capPrefix) == spaceH+1). It panics on a
// capPrefix of the wrong length or a kernel without objects — both are
// modelling bugs.
func (k *Kernel) PostHeightObjective(capPrefix []fabric.Histogram) *csp.Var {
	if len(capPrefix) != k.h+1 {
		panic("geost: capPrefix must have spaceH+1 entries")
	}
	if len(k.objects) == 0 {
		panic("geost: PostHeightObjective with no objects")
	}
	height := k.st.NewVarRange("height", 0, k.h)
	tops := make([]*csp.Var, len(k.objects))
	for i, o := range k.objects {
		tops[i] = o.Top
	}
	csp.MaxOf(k.st, height, tops...)
	hb := &heightBound{k: k, height: height, capPrefix: capPrefix}
	watched := append([]*csp.Var{height}, k.PlaceVars()...)
	k.st.Post(hb, watched...)
	return height
}

// Name implements csp.Named.
func (p *heightBound) Name() string { return "geost.height-bound" }

func (p *heightBound) Propagate(st *csp.Store) error {
	var demand fabric.Histogram
	for _, o := range p.k.objects {
		d := o.MinDemand()
		for k := range demand {
			demand[k] += d[k]
		}
	}
	h := p.height.Min()
	for h <= p.k.h && !sufficient(p.capPrefix[h], demand) {
		h++
	}
	// If even the full space cannot cover the demand, SetMin empties the
	// height domain and reports inconsistency.
	return st.SetMin(p.height, h)
}

func sufficient(capacity, demand fabric.Histogram) bool {
	for k := range demand {
		if demand[k] > capacity[k] {
			return false
		}
	}
	return true
}

package geost

import (
	"math/bits"

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
	// Within one shape's block of placement values, values ascend with
	// y, so the block's first and last values hold its lowest and
	// highest top.
	lo, hi := o.k.h+1, -1
	for sid := range o.Shapes {
		first, last, ok := o.Place.Domain().RangeBounds(o.k.encode(sid, 0, 0), o.k.encode(sid+1, 0, 0)-1)
		if ok {
			lo, hi = min(lo, o.TopOf(first)), max(hi, o.TopOf(last))
		}
	}
	if err := st.SetMin(o.Top, lo); err != nil {
		return err
	}
	if err := st.SetMax(o.Top, hi); err != nil {
		return err
	}
	tLo, tHi := o.Top.Min(), o.Top.Max()
	if tLo > lo || tHi < hi {
		return st.FilterDomain(o.Place, func(val int) bool {
			t := o.TopOf(val)
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
// footprint hits a set bit of occ; box bounds the set bits of occ.
//
// It refutes before it prunes. The first pass looks in every other
// object for one placement that occ leaves free, and fails without
// touching a domain when some object has none: most runs end that way,
// and pruning the objects ahead of the emptied one would only trail
// copies that the next Pop discards. The second pass prunes in object
// order and can no longer empty a domain, so both passes together reach
// the same fixpoint, and fail on the same states, as pruning alone.
//
// Both passes visit only each object's forbidden-region candidates,
// the placements whose bounding box meets box (see scanWindow), 64 to a
// domain word. The prune pass collects the hits as masks and removes
// them with one Store.RemoveMasks per object, so the solver still counts
// one prune event per pruned object.
func (k *Kernel) pruneOthers(st *csp.Store, self *Object, occ *grid.Bitmap, box grid.Rect) error {
	for _, other := range k.objects {
		if other != self && !other.anyFree(occ, box) {
			return csp.ErrInconsistent
		}
	}
	for _, other := range k.objects {
		if other == self {
			continue
		}
		k.kill = other.appendHits(k.kill[:0], occ, box)
		if err := st.RemoveMasks(other.Place, k.kill); err != nil {
			return err
		}
	}
	return nil
}

// anyFree reports whether o keeps a placement that misses every set bit
// of occ. A placement whose bounding box misses box is free, and the
// domain's bounds usually are: checking them first answers most calls
// with two decodes. Otherwise it stops at the first candidate that
// misses occ, and when every candidate hits, a value left uncounted
// lies outside the candidates and is free.
func (o *Object) anyFree(occ *grid.Bitmap, box grid.Rect) bool {
	dom := o.Place.Domain()
	if !o.meets(dom.Max(), box) || !o.meets(dom.Min(), box) {
		return true
	}
	seen, free := 0, false
	o.scanWindow(dom, box, func(sid, x, y int, live uint64) bool {
		seen += bits.OnesCount64(live)
		for ; live != 0; live &= live - 1 {
			if !o.hitsAt(sid, x+bits.TrailingZeros64(live), y, occ, box) {
				free = true
				return false
			}
		}
		return true
	})
	return free || seen < dom.Size()
}

// appendHits appends to dst, as masks of placement values, the
// placements of o that cover a set bit of occ.
func (o *Object) appendHits(dst []csp.Mask64, occ *grid.Bitmap, box grid.Rect) []csp.Mask64 {
	o.scanWindow(o.Place.Domain(), box, func(sid, x, y int, live uint64) bool {
		var hit uint64
		for m := live; m != 0; m &= m - 1 {
			if b := bits.TrailingZeros64(m); o.hitsAt(sid, x+b, y, occ, box) {
				hit |= 1 << uint(b)
			}
		}
		if hit != 0 {
			dst = append(dst, csp.Mask64{Lo: o.k.encode(sid, x, y), Bits: hit})
		}
		return true
	})
	return dst
}

// scanWindow calls visit with the live placements of dom, a placement
// domain of o, whose bounding box meets box: for each shape, the
// anchors in x ∈ [box.MinX-W+1, box.MaxX-1] and y ∈ [box.MinY-H+1,
// box.MaxY-1], clamped to the space. visit gets them a row word at a
// time, as the live bits of the anchors from (x, y) rightwards, and
// stops the scan by returning false. Rows that hold no value between
// dom's bounds are skipped without reading the domain.
func (o *Object) scanWindow(dom *csp.Domain, box grid.Rect, visit func(sid, x, y int, live uint64) bool) {
	k := o.k
	smin, xmin, ymin := o.Decode(dom.Min())
	smax, xmax, ymax := o.Decode(dom.Max())
	for sid := smin; sid <= smax; sid++ {
		g := &o.Shapes[sid]
		x0, x1 := max(0, box.MinX-g.W+1), min(k.w-g.W, box.MaxX-1)
		y0, y1 := max(0, box.MinY-g.H+1), min(k.h-g.H, box.MaxY-1)
		if sid == smin {
			if xmin > x1 {
				ymin++
			}
			y0 = max(y0, ymin)
		}
		if sid == smax {
			if xmax < x0 {
				ymax--
			}
			y1 = min(y1, ymax)
		}
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x += 64 {
				live := dom.Bits64(k.encode(sid, x, y)) & lowBits(x1-x+1)
				if live != 0 && !visit(sid, x, y, live) {
					return
				}
			}
		}
	}
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

package geost

import (
	"math/bits"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

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
// one prune per pruned object.
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

// heightBound is the occupied-height objective: the height variable
// equals the largest top (y + shape height) over the objects'
// placements, and the space's first height rows must hold the objects'
// total minimum demand of every resource kind. Each run makes one pass
// over every object's shape blocks (see topHull) and then
//   - bounds height by the largest lowest top and the largest highest
//     top;
//   - raises height to the fewest rows whose capacity covers the demand,
//     which fails fast when a branch-and-bound cap is unachievable;
//   - cuts every object's placements whose top exceeds height's
//     maximum, which is how that cap reaches into placement domains;
//   - when exactly one object can still reach height's minimum, cuts
//     that object's placements below it.
//
// A cut removes whole anchor rows of a shape block and wakes the
// propagator again, so the store carries it to its fixpoint.
type heightBound struct {
	k      *Kernel
	height *csp.Var
	// capPrefix[h][kind] = tiles of that kind in rows < h.
	capPrefix []fabric.Histogram
	// hi holds each object's highest top during a run.
	hi []int
}

// PostHeightObjective creates the occupied-height variable, height =
// the largest top over the objects, and posts heightBound on it and
// every placement variable. capPrefix[h] must hold the per-kind tile
// counts of the space's first h rows (len(capPrefix) == spaceH+1). It
// panics on a capPrefix of the wrong length or a kernel without
// objects — both are modelling bugs.
func (k *Kernel) PostHeightObjective(capPrefix []fabric.Histogram) *csp.Var {
	if len(capPrefix) != k.h+1 {
		panic("geost: capPrefix must have spaceH+1 entries")
	}
	if len(k.objects) == 0 {
		panic("geost: PostHeightObjective with no objects")
	}
	height := k.st.NewVarRange("height", 0, k.h)
	hb := &heightBound{k: k, height: height, capPrefix: capPrefix, hi: make([]int, len(k.objects))}
	watched := append([]*csp.Var{height}, k.PlaceVars()...)
	k.st.Post(hb, watched...)
	return height
}

// Name implements csp.Named.
func (p *heightBound) Name() string { return "geost.height-bound" }

func (p *heightBound) Propagate(st *csp.Store) error {
	k := p.k
	var demand fabric.Histogram
	lo, hi := 0, 0
	for i, o := range k.objects {
		olo, ohi, d := o.topHull()
		lo, hi, p.hi[i] = max(lo, olo), max(hi, ohi), ohi
		for r := range demand {
			demand[r] += d[r]
		}
	}
	h := max(p.height.Min(), lo)
	for h <= k.h && !sufficient(p.capPrefix[h], demand) {
		h++
	}
	// If even the full space cannot cover the demand, SetMin empties the
	// height domain and reports inconsistency.
	if err := st.SetMin(p.height, h); err != nil {
		return err
	}
	if err := st.SetMax(p.height, hi); err != nil {
		return err
	}
	hMin, hMax := p.height.Min(), p.height.Max()
	var reach *Object
	n := 0
	for i, o := range k.objects {
		if p.hi[i] > hMax {
			if err := o.cutTops(st, hMax+1, k.h); err != nil {
				return err
			}
		}
		if p.hi[i] >= hMin {
			reach, n = o, n+1
		}
	}
	if n == 1 {
		return reach.cutTops(st, 0, hMin-1)
	}
	return nil
}

// topHull returns the lowest and the highest top over o's placements
// and, per kind, the smallest demand over its live shapes. Within one
// shape's block of placement values, values ascend with y, so the
// block's first and last values hold its lowest and highest top; the
// domain's bounds are those of the first and last live shapes' blocks,
// and with one live shape nothing needs scanning.
func (o *Object) topHull() (lo, hi int, demand fabric.Histogram) {
	dom := o.Place.Domain()
	smin, _, _ := o.Decode(dom.Min())
	smax, _, _ := o.Decode(dom.Max())
	lo = o.k.h + 1
	for sid := smin; sid <= smax; sid++ {
		first, last, ok := dom.Min(), dom.Max(), true
		if smin < smax {
			first, last, ok = dom.RangeBounds(o.k.encode(sid, 0, 0), o.k.encode(sid+1, 0, 0)-1)
		}
		if !ok {
			continue
		}
		d := o.Shapes[sid].Hist
		if hi > 0 { // not the first live shape
			for r := range d {
				d[r] = min(d[r], demand[r])
			}
		}
		demand = d
		lo, hi = min(lo, o.TopOf(first)), max(hi, o.TopOf(last))
	}
	return lo, hi, demand
}

// cutTops removes o's placements whose top lies in [lo, hi]: in each
// shape's block, the anchor rows from lo-H to hi-H, clipped to the
// domain's bounds.
func (o *Object) cutTops(st *csp.Store, lo, hi int) error {
	k := o.k
	dom := o.Place.Domain()
	k.kill = k.kill[:0]
	for sid := range o.Shapes {
		h := o.Shapes[sid].H
		from := max(dom.Min(), k.encode(sid, 0, max(0, lo-h)))
		to := min(dom.Max(), k.encode(sid, 0, min(k.h-h, hi-h)+1)-1)
		for v := from; v <= to; v += 64 {
			k.kill = append(k.kill, csp.Mask64{Lo: v, Bits: lowBits(to - v + 1)})
		}
	}
	return st.RemoveMasks(o.Place, k.kill)
}

func sufficient(capacity, demand fabric.Histogram) bool {
	for k := range demand {
		if demand[k] > capacity[k] {
			return false
		}
	}
	return true
}

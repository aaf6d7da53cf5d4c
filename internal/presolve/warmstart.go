package presolve

import (
	"sort"

	"repro/internal/geost"
	"repro/internal/grid"
)

// warmOrder orders objects for one first-fit pass: decreasing primary
// key with the object index as the deterministic tie-break.
func warmOrder(objs []*geost.Object, key func(o *geost.Object) int) []int {
	order := make([]int, len(objs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return key(objs[order[a]]) > key(objs[order[b]])
	})
	return order
}

// warmStart runs bottom-left-decreasing first-fit over the pruned
// placement domains: objects in decreasing order of their cheapest
// surviving alternative's tile count (stable on input order), each
// taking the first candidate value in (top, y, x, shape) order that
// does not collide with the occupancy painted so far. Operating on the
// domains — rather than re-deriving anchors as internal/baseline does —
// means region bounds, resource compatibility, bus-row attachment and
// any root-level pruning are all honoured for free, so a completed
// pass is a feasible placement by construction. Its height seeds the
// branch-and-bound incumbent; failure to complete simply leaves the
// search cold (WarmFound=false), never an error. Two more passes order
// the objects by decreasing height and width instead.
func warmStart(k *geost.Kernel, stats *Stats) {
	objs := k.Objects()
	keys := []func(o *geost.Object) int{
		minTiles,
		func(o *geost.Object) int { return maxDim(o, false) },
		func(o *geost.Object) int { return maxDim(o, true) },
	}
	for _, key := range keys {
		vals, top, ok := warmPass(k, warmOrder(objs, key))
		if !ok {
			continue
		}
		top = descend(k, vals, top)
		if !stats.WarmFound || top < stats.WarmObjective {
			stats.WarmFound = true
			stats.WarmObjective = top
			stats.WarmValues = vals
		}
	}
}

// descend lowers a feasible placement's occupied height by local moves:
// as long as every object touching the top row can be re-placed (any
// alternative, any anchor) strictly below it without colliding with the
// rest, the top row peels off and the descent repeats one row further
// down. It mutates vals in place and returns the final height.
func descend(k *geost.Kernel, vals []int, top int) int {
	objs := k.Objects()
	occ := grid.NewBitmap(k.W(), k.H())
	for i, o := range objs {
		sid, x, y := o.Decode(vals[i])
		occ.SetPointsAt(o.Shapes[sid].Points, grid.Pt(x, y), true)
	}
	for {
		moved := true
		for i, o := range objs {
			if o.TopOf(vals[i]) < top {
				continue
			}
			sid, x, y := o.Decode(vals[i])
			own, ownAt := o.Shapes[sid].Points, grid.Pt(x, y)
			occ.SetPointsAt(own, ownAt, false)
			placed := false
			o.Place.Domain().ForEach(func(v int) bool {
				if o.TopOf(v) >= top {
					return true
				}
				nsid, nx, ny := o.Decode(v)
				g := &o.Shapes[nsid]
				at := grid.Pt(nx, ny)
				if occ.AnyAt(g.Points, at) {
					return true
				}
				occ.SetPointsAt(g.Points, at, true)
				vals[i] = v
				placed = true
				return false
			})
			if !placed {
				occ.SetPointsAt(own, ownAt, true)
				moved = false
				break
			}
		}
		if !moved {
			return top
		}
		newTop := 0
		for i, o := range objs {
			if t := o.TopOf(vals[i]); t > newTop {
				newTop = t
			}
		}
		top = newTop
	}
}

func warmPass(k *geost.Kernel, order []int) (vals []int, maxTop int, ok bool) {
	objs := k.Objects()
	occ := grid.NewBitmap(k.W(), k.H())
	vals = make([]int, len(objs))
	for _, idx := range order {
		o := objs[idx]
		v, ok := firstFree(k, o, occ)
		if !ok {
			return nil, 0, false
		}
		sid, x, y := o.Decode(v)
		occ.SetPointsAt(o.Shapes[sid].Points, grid.Pt(x, y), true)
		vals[idx] = v
		if t := o.TopOf(v); t > maxTop {
			maxTop = t
		}
	}
	return vals, maxTop, true
}

// firstFree returns o's first placement value in (top, y, x, shape)
// order whose footprint misses occ. It walks the tops upward, so it
// reads only the placements up to the one it returns. At one top a
// taller shape sits lower, so the shapes go by decreasing height; the
// shapes of one height share their rows and interleave by x.
func firstFree(k *geost.Kernel, o *geost.Object, occ *grid.Bitmap) (int, bool) {
	sids := make([]int, len(o.Shapes))
	for i := range sids {
		sids[i] = i
	}
	sort.SliceStable(sids, func(a, b int) bool { return o.Shapes[sids[a]].H > o.Shapes[sids[b]].H })
	dom := o.Place.Domain()
	for top := 1; top <= k.H(); top++ {
		for i := 0; i < len(sids); {
			h := o.Shapes[sids[i]].H
			j := i + 1
			for j < len(sids) && o.Shapes[sids[j]].H == h {
				j++
			}
			for x := 0; top >= h && x < k.W(); x++ {
				for _, sid := range sids[i:j] {
					if v := o.Value(sid, x, top-h); dom.Contains(v) && !occ.AnyAt(o.Shapes[sid].Points, grid.Pt(x, top-h)) {
						return v, true
					}
				}
			}
			i = j
		}
	}
	return 0, false
}

// maxDim returns the largest height (or width) over the object's
// shapes still present in its domain.
func maxDim(o *geost.Object, width bool) int {
	best := 0
	for sid := range o.Shapes {
		if !o.ShapePresent(sid) {
			continue
		}
		d := o.Shapes[sid].H
		if width {
			d = o.Shapes[sid].W
		}
		if d > best {
			best = d
		}
	}
	return best
}

// minTiles returns the smallest tile count over the object's shapes
// still present in its domain.
func minTiles(o *geost.Object) int {
	best := -1
	for sid := range o.Shapes {
		if !o.ShapePresent(sid) {
			continue
		}
		if n := len(o.Shapes[sid].Points); best < 0 || n < best {
			best = n
		}
	}
	return best
}

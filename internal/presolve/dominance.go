package presolve

import (
	"repro/internal/csp"
	"repro/internal/geost"
	"repro/internal/grid"
)

// dominance drops dominated design alternatives from every object's
// placement domain. Shape a dominates sibling shape b when a's tiles
// (in the shapes' shared anchor-relative frame) are a subset of b's
// AND a is placeable at every anchor b still is: then any placement of
// b at anchor p rewrites to a at p — a covers a subset of b's tiles
// (no new overlap, no new resource demand) and its top row is no
// higher (the objective cannot worsen). Dropping b therefore preserves
// the optimal height and feasibility.
//
// Proper dominance is a strict partial order (a covers strictly fewer
// tiles, or strictly more anchors), so no cycle can drop two shapes
// that justify each other; for fully identical shapes (equal tiles and
// equal anchors) the lower shape id is kept as the canonical
// representative.
func dominance(st *csp.Store, k *geost.Kernel, stats *Stats) error {
	for _, o := range k.Objects() {
		if len(o.Shapes) < 2 {
			continue
		}
		anchors := domainAnchors(k, o)
		drop := make([]bool, len(o.Shapes))
		for b := range o.Shapes {
			if anchors[b] == nil {
				continue // already absent from the domain
			}
			for a := range o.Shapes {
				if a == b || anchors[a] == nil {
					continue
				}
				if dominates(o, a, b, anchors) {
					drop[b] = true
					stats.AlternativesDropped++
					break
				}
			}
		}
		any := false
		for _, d := range drop {
			any = any || d
		}
		if !any {
			continue
		}
		err := st.FilterDomain(o.Place, func(val int) bool {
			sid, _, _ := o.Decode(val)
			return !drop[sid]
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// domainAnchors splits an object's current placement domain into
// per-shape anchor bitmaps; absent shapes get nil. The current domain,
// not the static valid-anchor map, is what dominance must compare:
// root propagation (bus-row restriction, bound cuts) may already have
// pruned anchors, and the rewrite target a@p must be a live value.
func domainAnchors(k *geost.Kernel, o *geost.Object) []*grid.Bitmap {
	out := make([]*grid.Bitmap, len(o.Shapes))
	o.Place.Domain().ForEach(func(val int) bool {
		sid, x, y := o.Decode(val)
		if out[sid] == nil {
			out[sid] = grid.NewBitmap(k.W(), k.H())
		}
		out[sid].Set(x, y, true)
		return true
	})
	return out
}

// dominates reports whether shape a dominates shape b of object o
// given their live anchor bitmaps.
func dominates(o *geost.Object, a, b int, anchors []*grid.Bitmap) bool {
	ga, gb := &o.Shapes[a], &o.Shapes[b]
	if len(ga.Points) > len(gb.Points) {
		return false
	}
	if !pointsSubset(ga.Points, gb.Points) {
		return false
	}
	// Every anchor live for b must be live for a.
	missing := anchors[b].Clone()
	missing.AndNot(anchors[a])
	if missing.Count() != 0 {
		return false
	}
	// Strictness: fewer tiles or more anchors makes the order
	// antisymmetric; full equality keeps the lower shape id.
	if len(ga.Points) < len(gb.Points) || anchors[a].Count() > anchors[b].Count() {
		return true
	}
	return a < b
}

// pointsSubset reports whether every point of sub appears in super: two
// anchor-relative tile sets of sibling shapes, in the strictly
// ascending (y, x) order geost.AddObject checks, so one merge walk.
func pointsSubset(sub, super []grid.Point) bool {
	j := 0
	for _, p := range sub {
		for j < len(super) && super[j].Less(p) {
			j++
		}
		if j == len(super) || super[j] != p {
			return false
		}
		j++
	}
	return true
}

package presolve

import (
	"repro/internal/csp"
	"repro/internal/geost"
)

// symmetry posts lex-ordering constraints between interchangeable
// objects. Two objects are interchangeable when their shape lists
// match sid for sid (equal tile sets) and their current placement
// domains are equal as value sets — then every constraint of the model
// (non-overlap, the height objective) is invariant under swapping the
// two objects, and any solution permuting a group's placements can be
// rewritten, by sorting the group's values ascending, into one
// satisfying place_1 < place_2 < ... (equal values are impossible:
// identical shapes at the same anchor overlap). The
// chain therefore keeps at least one optimal representative per
// permutation class while the search skips the other k!-1 relabelings.
//
// Grouping is sid-aligned on purpose: objects with the same shape
// *set* in a different order would need a sid remap to swap, which the
// raw lex order over encoded values does not model. The canonicalized
// requests the service solves (canon sorts shapes by key) make
// identical modules sid-aligned anyway.
// It returns the groups as lists of object indices in chain order, so
// the caller can canonicalize a warm placement against the posted
// orderings.
func symmetry(st *csp.Store, k *geost.Kernel, stats *Stats) [][]int {
	objs := k.Objects()
	grouped := make([]bool, len(objs))
	var groups [][]int
	for i := range objs {
		if grouped[i] {
			continue
		}
		prev := -1
		for j := i + 1; j < len(objs); j++ {
			if grouped[j] {
				continue
			}
			if !interchangeable(objs[i], objs[j]) {
				continue
			}
			grouped[j] = true
			if prev < 0 {
				stats.Groups++
				prev = i
				groups = append(groups, []int{i})
			}
			csp.LessEq(st, objs[prev].Place, objs[j].Place)
			stats.ModulesOrdered++
			prev = j
			groups[len(groups)-1] = append(groups[len(groups)-1], j)
		}
	}
	return groups
}

// interchangeable reports whether a and b can be swapped in any
// solution without changing feasibility or the objective.
func interchangeable(a, b *geost.Object) bool {
	if len(a.Shapes) != len(b.Shapes) {
		return false
	}
	for sid := range a.Shapes {
		ga, gb := &a.Shapes[sid], &b.Shapes[sid]
		if ga.W != gb.W || ga.H != gb.H || len(ga.Points) != len(gb.Points) {
			return false
		}
		if !pointsSubset(ga.Points, gb.Points) {
			return false
		}
	}
	return equalDomains(a.Place.Domain(), b.Place.Domain())
}

// equalDomains reports value-set equality of two domains.
func equalDomains(da, db *csp.Domain) bool {
	if da.Size() != db.Size() {
		return false
	}
	equal := true
	da.ForEach(func(val int) bool {
		if !db.Contains(val) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

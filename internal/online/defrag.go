package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// Resident describes one currently placed module for compaction
// planning.
type Resident struct {
	ID     TaskID
	Module *module.Module
	Shape  int
	At     grid.Point
}

func (r Resident) tiles() []grid.Point { return r.Module.Shape(r.Shape).PointsAt(r.At) }

// Move relocates one resident module to a new shape/anchor. Moves of a
// compaction plan are ordered: each move's target is free given all
// earlier moves applied.
type Move struct {
	ID    TaskID
	Shape int
	At    grid.Point
}

// PlanCompaction computes a defragmentation plan for the residents: the
// CP placer derives a tighter target layout (design alternatives
// included), and the planner orders the relocations so that every move
// lands on tiles that are free at its turn — a module is never without a
// valid location. Modules whose placement is unchanged do not move.
//
// The returned moves achieve the target layout when applied in order; an
// error is returned if no ordering exists (relocation cycles) or the
// target layout cannot be computed. A nil move list with a nil error
// means the residency is already as tight as the placer can make it.
func PlanCompaction(region *fabric.Region, residents []Resident, opts core.Options) ([]Move, *core.Result, error) {
	if len(residents) == 0 {
		return nil, nil, fmt.Errorf("online: no residents to compact")
	}
	seen := map[TaskID]bool{}
	for _, r := range residents {
		if r.Module == nil {
			return nil, nil, fmt.Errorf("online: resident %d has no module", r.ID)
		}
		if r.Shape < 0 || r.Shape >= r.Module.NumShapes() {
			return nil, nil, fmt.Errorf("online: resident %d has invalid shape %d", r.ID, r.Shape)
		}
		if seen[r.ID] {
			return nil, nil, fmt.Errorf("online: duplicate resident %d", r.ID)
		}
		seen[r.ID] = true
	}

	target, moves, stuck, err := relayout(region, residents, nil, opts)
	if err != nil {
		return nil, nil, err
	}
	if !target.Found {
		return nil, nil, fmt.Errorf("online: compaction target infeasible")
	}

	// Keep the current layout unless the target is strictly lower.
	curTop := 0
	for _, r := range residents {
		if t := r.At.Y + r.Module.Shape(r.Shape).H(); t > curTop {
			curTop = t
		}
	}
	if target.Height >= curTop {
		return nil, target, nil
	}
	if stuck > 0 {
		return nil, target, fmt.Errorf("online: compaction blocked by a relocation cycle (%d modules)", stuck)
	}
	return moves, target, nil
}

// relayout is the CP step shared by admission replans and compaction:
// it solves a target layout for the residents — plus newcomer as the
// last module, when non-nil — under opts, diffs it against the current
// sites, and orders the relocations with orderMoves. stuck > 0 means a
// relocation cycle left that many moves unordered. Callers apply their
// own policy: admission forces first-solution search, compaction keeps
// the layout unless the target is lower.
func relayout(region *fabric.Region, residents []Resident, newcomer *module.Module, opts core.Options) (target *core.Result, moves []Move, stuck int, err error) {
	mods := make([]*module.Module, 0, len(residents)+1)
	for _, r := range residents {
		mods = append(mods, r.Module)
	}
	if newcomer != nil {
		mods = append(mods, newcomer)
	}
	target, err = core.New(region, opts).Place(mods)
	if err != nil || !target.Found {
		return target, nil, 0, err
	}
	occ := grid.NewBitmap(region.W(), region.H())
	cur := make(map[TaskID][]grid.Point, len(residents))
	var todo []pendingMove
	for i, r := range residents {
		pts := r.tiles()
		occ.SetPoints(pts, true)
		cur[r.ID] = pts
		p := target.Placements[i]
		if p.At == r.At && p.ShapeIndex == r.Shape {
			continue
		}
		todo = append(todo, pendingMove{id: r.ID, shape: p.ShapeIndex, at: p.At, target: p.Tiles()})
	}
	moves, stuck = orderMoves(occ, cur, todo)
	return target, moves, stuck, nil
}

// pendingMove is one relocation awaiting ordering: where a resident
// must end up (shape/anchor plus the absolute target tiles).
type pendingMove struct {
	id     TaskID
	shape  int
	at     grid.Point
	target []grid.Point
}

// orderMoves sequences relocations so every move's target tiles are
// free when its turn comes: repeatedly pick any pending move whose
// target is unoccupied once its own current tiles are vacated (a module
// leaves its old site atomically during reconfiguration), apply it, and
// emit it. occ must hold the occupancy of all residents and cur their
// current absolute tiles; both are advanced in place to the post-move
// state. The second result is the number of moves left unordered —
// non-zero means a relocation cycle that cannot be broken without a
// staging location, and occ/cur then reflect only the ordered prefix.
func orderMoves(occ *grid.Bitmap, cur map[TaskID][]grid.Point, todo []pendingMove) ([]Move, int) {
	var moves []Move
	for len(todo) > 0 {
		progressed := false
		for i := 0; i < len(todo); i++ {
			m := todo[i]
			occ.SetPoints(cur[m.id], false)
			if occ.AnyAt(m.target, grid.Pt(0, 0)) {
				occ.SetPoints(cur[m.id], true)
				continue
			}
			occ.SetPoints(m.target, true)
			cur[m.id] = m.target
			moves = append(moves, Move{ID: m.id, Shape: m.shape, At: m.at})
			todo = append(todo[:i], todo[i+1:]...)
			progressed = true
			i--
		}
		if !progressed {
			return moves, len(todo)
		}
	}
	return moves, 0
}

// ApplyMoves replays a move plan over a residency snapshot, validating
// each step (resource match, bounds, no overlap at the time of the
// move). It returns the final residency. This is the simulation-side
// counterpart of PlanCompaction and is used by tests and callers that
// maintain their own occupancy.
func ApplyMoves(region *fabric.Region, residents []Resident, moves []Move) ([]Resident, error) {
	out, _, err := applyMoves(region, residents, moves)
	return out, err
}

// applyMoves is ApplyMoves also returning the final occupancy.
func applyMoves(region *fabric.Region, residents []Resident, moves []Move) ([]Resident, *grid.Bitmap, error) {
	byID := make(map[TaskID]int, len(residents))
	occ := grid.NewBitmap(region.W(), region.H())
	out := make([]Resident, len(residents))
	copy(out, residents)
	for i, r := range out {
		byID[r.ID] = i
		occ.SetPoints(r.tiles(), true)
	}
	for _, m := range moves {
		i, ok := byID[m.ID]
		if !ok {
			return nil, nil, fmt.Errorf("online: move for unknown resident %d", m.ID)
		}
		r := out[i]
		occ.SetPoints(r.tiles(), false)
		next := Resident{ID: r.ID, Module: r.Module, Shape: m.Shape, At: m.At}
		pts, err := ValidatePlacement(region, occ, next.Module, Placement{Shape: m.Shape, At: m.At})
		if err != nil {
			return nil, nil, fmt.Errorf("online: move of %d invalid: %w", m.ID, err)
		}
		occ.SetPoints(pts, true)
		out[i] = next
	}
	return out, occ, nil
}

package core

import (
	"fmt"
	"time"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
)

// Placement records where one module landed: the chosen design
// alternative and the anchor of its bounding box in region-local
// coordinates.
type Placement struct {
	Module     *module.Module
	ShapeIndex int
	At         grid.Point
}

// Shape returns the chosen design alternative.
func (p Placement) Shape() *module.Shape { return p.Module.Shape(p.ShapeIndex) }

// Tiles returns the absolute region tiles the placement occupies.
func (p Placement) Tiles() []grid.Point { return p.Shape().PointsAt(p.At) }

// Bounds returns the absolute bounding box of the placement.
func (p Placement) Bounds() grid.Rect {
	s := p.Shape()
	return grid.RectXYWH(p.At.X, p.At.Y, s.W(), s.H())
}

// Top returns the first row above the placement (y + height).
func (p Placement) Top() int { return p.At.Y + p.Shape().H() }

// String renders "name@(x,y)/shapeN".
func (p Placement) String() string {
	return fmt.Sprintf("%s@%v/shape%d", p.Module.Name(), p.At, p.ShapeIndex)
}

// Result is the outcome of a placement run.
type Result struct {
	// Found reports whether any complete placement was found.
	Found bool
	// Placements holds one entry per module (in input order) when Found.
	Placements []Placement
	// Height is the occupied height (maximum Top over placements).
	Height int
	// Utilization is the average resource utilization within the
	// occupied extent (the paper's headline metric).
	Utilization float64
	// Optimal reports whether branch-and-bound proved Height optimal.
	Optimal bool
	// Stalled reports that optimisation stopped via the StallNodes
	// convergence criterion rather than by exhausting the search space.
	Stalled bool
	// Reason says why the underlying search ended (exhausted, timeout,
	// stalled or cut), removing the ambiguity of a silent stop.
	Reason csp.StopReason
	// Nodes is the number of search nodes explored.
	Nodes int64
	// Backtracks counts dead ends hit during the search.
	Backtracks int64
	// Propagations counts propagator executions during the search.
	Propagations int64
	// ObjectiveTrace records every improving solution (objective value,
	// node count and wall-clock offset), reconstructing the solver's
	// anytime behaviour. Empty in first-solution-only mode. When
	// presolve found a warm placement, the first point is that placement
	// at node zero.
	ObjectiveTrace []csp.ObjectivePoint
	// PresolveStats summarises what the presolve pipeline achieved; nil
	// when presolve did not run (PresolveOff or first-solution-only).
	PresolveStats *PresolveStats
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// PresolveStats reports per-technique presolve effect on one request.
type PresolveStats struct {
	// AlternativesDropped counts design alternatives removed by
	// dominance elimination.
	AlternativesDropped int
	// LexConstraints counts symmetry-breaking lex orderings posted
	// between interchangeable modules.
	LexConstraints int
	// BoundDelta is how many rows presolve raised the height objective's
	// lower bound.
	BoundDelta int
	// WarmHeight is the occupied height of the warm-start placement, or
	// 0 when the heuristic found none.
	WarmHeight int
}

// Occupancy paints the placements into a fresh bitmap of the region's
// dimensions.
func (res *Result) Occupancy(r *fabric.Region) *grid.Bitmap {
	b := grid.NewBitmap(r.W(), r.H())
	for _, p := range res.Placements {
		b.SetPoints(p.Tiles(), true)
	}
	return b
}

// String summarises the result in one line.
func (res *Result) String() string {
	if !res.Found {
		return fmt.Sprintf("no placement (nodes=%d, %v)", res.Nodes, res.Elapsed)
	}
	opt := "anytime/" + res.Reason.String()
	if res.Optimal {
		opt = "optimal"
	}
	return fmt.Sprintf("height=%d util=%.1f%% (%s, nodes=%d, %v)",
		res.Height, res.Utilization*100, opt, res.Nodes, res.Elapsed)
}

// Validate checks the paper's constraints M_a, M_b and M_c on a result
// through Fit — every tile inside the region on a matching resource, and
// no two placements sharing a tile — plus the reported height and
// utilization. It returns nil for valid results and is used by tests and
// as a post-solve assertion.
func (res *Result) Validate(r *fabric.Region) error {
	if !res.Found {
		return nil
	}
	occ := grid.NewBitmap(r.W(), r.H())
	for _, p := range res.Placements {
		if err := Fit(r, occ, p.Shape(), p.At); err != nil {
			return fmt.Errorf("core: %v %w", p, err)
		}
		occ.SetPoints(p.Tiles(), true)
		if p.Top() > res.Height {
			return fmt.Errorf("core: %v exceeds reported height %d", p, res.Height)
		}
	}
	if top := occ.MaxSetY(); top+1 != res.Height {
		return fmt.Errorf("core: reported height %d != occupied height %d", res.Height, top+1)
	}
	want := metrics.Utilization(r, occ)
	if diff := res.Utilization - want; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("core: reported utilization %v != recomputed %v", res.Utilization, want)
	}
	return nil
}

package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/geost"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/presolve"
)

// Strategy selects the branching-variable heuristic.
type Strategy uint8

// Branching strategies.
const (
	// StrategyFirstFail branches on the module with the fewest
	// remaining placements (dynamic, the default).
	StrategyFirstFail Strategy = iota
	// StrategyLargestFirst branches on modules in order of decreasing
	// minimum tile count (static).
	StrategyLargestFirst
	// StrategyInputOrder branches on modules in input order (static).
	StrategyInputOrder
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyFirstFail:
		return "first-fail"
	case StrategyLargestFirst:
		return "largest-first"
	case StrategyInputOrder:
		return "input-order"
	}
	return "unknown"
}

// ValueOrder selects the placement-value heuristic.
type ValueOrder uint8

// Value orderings.
const (
	// OrderBottomLeft tries anchors bottom row first, left to right,
	// design alternatives in declaration order (the default; it steers
	// branch-and-bound towards low placements immediately).
	OrderBottomLeft ValueOrder = iota
	// OrderLexicographic tries design alternatives in declaration
	// order, each bottom-left.
	OrderLexicographic
)

// String names the value order.
func (v ValueOrder) String() string {
	switch v {
	case OrderBottomLeft:
		return "bottom-left"
	case OrderLexicographic:
		return "lexicographic"
	}
	return "unknown"
}

// Options configures a Placer.
type Options struct {
	// Timeout bounds the optimisation; the best placement found within
	// the budget is returned (Optimal=false if the proof did not
	// finish). Zero means no limit.
	Timeout time.Duration
	// Strategy is the branching-variable heuristic.
	Strategy Strategy
	// ValueOrder is the placement-value heuristic.
	ValueOrder ValueOrder
	// FirstSolutionOnly stops at the first complete placement without
	// optimising height.
	FirstSolutionOnly bool
	// StallNodes, when positive, stops optimisation after this many
	// search nodes without an improvement — the deterministic
	// convergence criterion used to measure "solve time" in the
	// experiments. Zero disables it.
	StallNodes int64
	// BusRows, when non-empty, lists the rows carrying the on-FPGA
	// communication bus (ReCoBus-style): every module's bounding box
	// must cross at least one bus row so the module can attach to the
	// bus. Anchors violating this are removed up front.
	BusRows []int
	// Workers, when greater than 1, optimises with branch-and-bound on
	// that many goroutines (csp.Options.Workers): the first branching
	// level is split into subproblems explored on cloned stores against
	// a shared incumbent. 0 or 1 searches sequentially, and
	// first-solution mode always does. Exhaustive runs return the same
	// height and the same placement for every worker count (ties are
	// broken by subtree order, not arrival order); stalled or timed-out
	// runs may differ, as with any anytime stop.
	Workers int
	// StrongPropagation adds geost compulsory-part pruning to the
	// pairwise non-overlap: objects whose remaining placements share a
	// guaranteed footprint prune their neighbours before being
	// assigned. More pruning per node, fewer nodes.
	StrongPropagation bool
	// Presolve toggles the optimality-preserving presolve pipeline
	// (dominance elimination, symmetry breaking, bound strengthening,
	// warm start; see internal/presolve). The zero value (PresolveOn)
	// runs it before every optimising search; PresolveOff searches the
	// model exactly as built. First-solution-only mode always skips
	// presolve: its lex constraints and warm bound shape the *optimal*
	// search and could exclude the placement a plain dive finds first.
	Presolve PresolveMode
	// Recorder, when non-nil, receives the structured solver event
	// stream (phase markers, branches, backtracks, prunes, incumbents).
	// Nil keeps the solve free of any recording overhead.
	Recorder obs.Recorder
	// Metrics, when non-nil, receives phase timings (model build,
	// search, propagation, optimality proof) and enables per-fixpoint
	// propagation timing on the store.
	Metrics *obs.Registry
}

// Placer places modules onto one partial region. It holds no mutable
// state between Place calls and is reusable, though not concurrently.
type Placer struct {
	region *fabric.Region
	opts   Options
}

// New returns a placer for the given region.
func New(region *fabric.Region, opts Options) *Placer {
	return &Placer{region: region, opts: opts}
}

// Place computes a minimum-height placement of the modules. Modules with
// no feasible position at all yield an error; a module set that is
// individually placeable but jointly infeasible yields Found=false.
func (p *Placer) Place(mods []*module.Module) (*Result, error) {
	//solverlint:allow nondeterminism run-start timestamp anchors Options.Timeout (a documented anytime stop) and Result.Elapsed reporting; exhaustive runs never read it
	start := time.Now()
	if len(mods) == 0 {
		return nil, fmt.Errorf("core: no modules to place")
	}

	reg := p.opts.Metrics
	if p.opts.Recorder != nil {
		p.opts.Recorder.Record(obs.Event{Kind: obs.KindPhase, Phase: "model_build"})
	}
	buildT := reg.Timer("phase_model_build")

	st := csp.NewStore()
	if reg != nil {
		st.EnableTiming(true)
	}
	k := geost.New(st, p.region.W(), p.region.H())
	objects := make([]*geost.Object, len(mods))
	for i, m := range mods {
		geoms := make([]geost.ShapeGeom, m.NumShapes())
		for si, s := range m.Shapes() {
			geoms[si] = ShapeGeomFor(p.region, s)
			if len(p.opts.BusRows) > 0 {
				restrictToBusRows(&geoms[si], p.opts.BusRows)
			}
		}
		o, err := k.AddObject(m.Name(), geoms)
		if err != nil {
			return nil, fmt.Errorf("core: module %s: %w", m.Name(), err)
		}
		objects[i] = o
	}
	k.PostNonOverlap()
	if p.opts.StrongPropagation {
		k.PostCompulsoryNonOverlap()
	}
	height := k.PostHeightObjective(CapacityPrefix(p.region))
	buildT.Stop()

	opts := csp.Options{
		ChooseVar:   p.chooser(mods, objects),
		OrderValues: p.valueOrderer(objects),
		StallNodes:  p.opts.StallNodes,
		Recorder:    p.opts.Recorder,
		Workers:     p.opts.Workers,
	}
	if p.opts.Timeout > 0 {
		opts.Deadline = start.Add(p.opts.Timeout)
	}
	res := &Result{}

	if p.opts.Presolve == PresolveOn && !p.opts.FirstSolutionOnly {
		if p.opts.Recorder != nil {
			p.opts.Recorder.Record(obs.Event{Kind: obs.KindPhase, Phase: "presolve"})
		}
		presolveT := reg.Timer("phase_presolve")
		pstats, perr := presolve.Apply(st, k, height)
		presolveT.Stop()
		res.PresolveStats = &PresolveStats{
			AlternativesDropped: pstats.AlternativesDropped,
			LexConstraints:      pstats.ModulesOrdered,
			BoundDelta:          pstats.BoundDelta,
		}
		reg.Counter("presolve_alternatives_dropped").Add(int64(pstats.AlternativesDropped))
		reg.Counter("presolve_modules_ordered").Add(int64(pstats.ModulesOrdered))
		reg.Counter("presolve_bound_delta").Add(int64(pstats.BoundDelta))
		if perr == csp.ErrInconsistent {
			// Presolve proved the instance infeasible at the root: same
			// outcome as an exhausted search that never found a solution.
			//solverlint:allow nondeterminism Result.Elapsed is reporting-only; no placement decision depends on it
			res.Elapsed = time.Since(start)
			res.Reason = csp.StopExhausted
			return res, nil
		}
		if perr != nil {
			return nil, perr
		}
		if pstats.WarmFound {
			res.PresolveStats.WarmHeight = pstats.WarmObjective
			reg.Gauge("presolve_warm_objective").Set(float64(pstats.WarmObjective))
			// Clip the height domain at the warm objective — non-strict,
			// so every placement as good as the heuristic's survives —
			// and guide the first dive to the warm placement itself. The
			// warm assignment is a solution of the clipped model, so the
			// dive reaches it without backtracking and branch-and-bound
			// opens with a real incumbent instead of a cold first
			// plateau.
			if err := st.SetMax(height, pstats.WarmObjective); err != nil {
				return nil, fmt.Errorf("core: presolve warm clip: %w", err)
			}
			if err := st.Propagate(); err != nil {
				return nil, fmt.Errorf("core: presolve warm clip: %w", err)
			}
			warmVal := make(map[int]int, len(objects))
			for i, o := range objects {
				warmVal[o.Place.ID()] = pstats.WarmValues[i]
			}
			opts.OrderValues = csp.PreferValues(opts.OrderValues, warmVal)
		}
	}
	// snapshot reads the solution through variable ids, not through the
	// objects' own pointers: under parallel search s is a clone of st,
	// holding counterpart variables at the same ids.
	snapshot := func(s *csp.Store, best int) {
		res.Found = true
		res.Height = best
		res.Placements = res.Placements[:0]
		for i, o := range objects {
			sid, x, y := o.Decode(s.Vars()[o.Place.ID()].Value())
			res.Placements = append(res.Placements, Placement{
				Module:     mods[i],
				ShapeIndex: sid,
				At:         grid.Pt(x, y),
			})
		}
	}

	if p.opts.Recorder != nil {
		p.opts.Recorder.Record(obs.Event{Kind: obs.KindPhase, Phase: "search"})
	}
	searchT := reg.Timer("phase_search")
	if p.opts.FirstSolutionOnly {
		onSolution := func(s *csp.Store) bool {
			best := s.Vars()[height.ID()].Min() // all tops assigned: max top = height min
			snapshot(s, best)
			return false
		}
		sres, err := csp.Solve(st, k.PlaceVars(), opts, onSolution)
		if err != nil {
			return nil, err
		}
		res.Nodes = sres.Nodes
		res.Backtracks = sres.Backtracks
		res.Propagations = sres.Propagations
		res.Reason = sres.Reason
		res.Optimal = false
	} else {
		mres, err := csp.Minimize(st, k.PlaceVars(), height, opts, snapshot)
		if err != nil {
			return nil, err
		}
		res.Nodes = mres.Nodes
		res.Backtracks = mres.Backtracks
		res.Propagations = mres.Propagations
		res.Reason = mres.Reason
		res.Optimal = mres.Found && mres.Optimal
		res.Stalled = mres.Stalled
		res.ObjectiveTrace = mres.BestObjectiveTrace
	}
	searchDur := searchT.Stop()
	if reg != nil {
		reg.ObserveDuration("phase_propagation", st.PropagationTime())
		// The optimality proof is the tail of the search after the last
		// improving solution.
		if res.Optimal && len(res.ObjectiveTrace) > 0 {
			last := res.ObjectiveTrace[len(res.ObjectiveTrace)-1]
			reg.ObserveDuration("phase_proof", searchDur-last.Elapsed)
		}
	}

	//solverlint:allow nondeterminism Result.Elapsed is reporting-only; no placement decision depends on it
	res.Elapsed = time.Since(start)
	if res.Found {
		res.Utilization = metrics.Utilization(p.region, res.Occupancy(p.region))
	}
	return res, nil
}

// chooser builds the branching-variable heuristic. It always exhausts
// the placement variables before touching auxiliary search variables
// (the height objective): branching on the objective first would turn
// the dive into exact-height packing and thrash.
//
// The heuristic is positional, not pointer-bound: the first
// len(objects) search variables are the placement variables in module
// order (k.PlaceVars ordering), on the original store and on every
// worker clone alike. Capturing the original *Var pointers instead
// would make parallel workers branch on the wrong (frozen) store.
func (p *Placer) chooser(mods []*module.Module, objects []*geost.Object) csp.VarChooser {
	n := len(objects)
	var base csp.VarChooser
	switch p.opts.Strategy {
	case StrategyLargestFirst:
		order := make([]int, len(mods))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return mods[order[a]].MinSize() > mods[order[b]].MinSize()
		})
		base = func(place []*csp.Var) *csp.Var {
			for _, idx := range order {
				if !place[idx].Assigned() {
					return place[idx]
				}
			}
			return nil
		}
	case StrategyInputOrder:
		base = csp.FirstUnassigned
	default:
		base = csp.SmallestDomain
	}
	return func(all []*csp.Var) *csp.Var {
		if v := base(all[:n]); v != nil {
			return v
		}
		return csp.FirstUnassigned(all)
	}
}

// restrictToBusRows clears anchors whose bounding box crosses no bus
// row: with anchor y the box covers rows [y, y+H), so it attaches to a
// bus at row r iff y <= r < y+H.
func restrictToBusRows(g *geost.ShapeGeom, busRows []int) {
	for y := 0; y < g.Valid.H(); y++ {
		attached := false
		for _, r := range busRows {
			if y <= r && r < y+g.H {
				attached = true
				break
			}
		}
		if !attached {
			g.Valid.SetRect(grid.RectXYWH(0, y, g.Valid.W(), 1), false)
		}
	}
}

// valueOrderer builds the placement-value heuristic. For bottom-left
// ordering each object's full candidate list is pre-sorted by
// (y, x, shape); at a node the live values are picked from that
// permutation by a constant-time membership test.
func (p *Placer) valueOrderer(objects []*geost.Object) csp.ValueOrderer {
	if p.opts.ValueOrder == OrderLexicographic {
		return csp.AscendingValues
	}
	// Keyed by variable id so the permutation applies to a worker
	// clone's counterpart variable as well as the original.
	perm := make(map[int][]int, len(objects))
	for _, o := range objects {
		vals := o.Place.Domain().Values()
		obj := o
		sort.SliceStable(vals, func(a, b int) bool {
			sa, xa, ya := obj.Decode(vals[a])
			sb, xb, yb := obj.Decode(vals[b])
			if ya != yb {
				return ya < yb
			}
			if xa != xb {
				return xa < xb
			}
			return sa < sb
		})
		perm[o.Place.ID()] = vals
	}
	return func(v *csp.Var) []int {
		ordered, ok := perm[v.ID()]
		if !ok {
			return csp.AscendingValues(v)
		}
		dom := v.Domain()
		out := make([]int, 0, dom.Size())
		for _, val := range ordered {
			if dom.Contains(val) {
				out = append(out, val)
				if len(out) == dom.Size() {
					break
				}
			}
		}
		return out
	}
}

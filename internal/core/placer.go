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
	// that many goroutines (csp.MinimizeParallel): the first branching
	// level is split into subproblems, each worker searching its own
	// build of the model against a shared incumbent. 0 or 1 searches
	// sequentially, and first-solution mode always does. Exhaustive
	// runs return the same height and the same placement for every
	// worker count (ties are broken by subtree order, not arrival
	// order); stalled or timed-out runs may differ, as with any anytime
	// stop.
	Workers int
	// StrongPropagation adds geost compulsory-part pruning to the
	// per-object non-overlap: objects whose remaining placements share a
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
	// Metrics, when non-nil, receives phase timings (model build,
	// search, propagation, optimality proof) and the search's own
	// effort counters (branches, backtracks, propagations, prunes and
	// pruned values, solutions, maximum depth, incumbents, best
	// objective, runs per propagator), and enables per-fixpoint
	// propagation timing on the store.
	Metrics *obs.Registry
	// Recorder is ignored, as is obs.NewStats, which returns its only
	// value. Both stay only until the benchmark harness stops assigning
	// opts.Recorder = obs.NewStats(reg) (ROADMAP item 1, Step B).
	Recorder struct{}
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
	m, err := p.build(mods, reg)
	if err != nil {
		return nil, err
	}
	st, objects, height := m.st, m.objects, m.height
	res := &Result{PresolveStats: m.presolve}
	if m.infeasible {
		// Presolve proved the instance infeasible at the root: same
		// outcome as an exhausted search that never found a solution.
		//solverlint:allow nondeterminism Result.Elapsed is reporting-only; no placement decision depends on it
		res.Elapsed = time.Since(start)
		res.Reason = csp.StopExhausted
		return res, nil
	}

	opts := csp.Options{
		ChooseVar:   p.chooser(mods, objects),
		OrderValues: csp.PreferValues(p.valueOrderer(objects), m.warm),
		StallNodes:  p.opts.StallNodes,
	}
	if p.opts.Timeout > 0 {
		opts.Deadline = start.Add(p.opts.Timeout)
	}
	// snapshot reads the solution through variable ids, not through the
	// objects' own pointers: under parallel search s is a worker's own
	// build of the model, holding counterpart variables at the same ids.
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

	var runsBase map[string]int64
	if reg != nil {
		runsBase = runsByName(st)
	}
	searchT := reg.Timer("phase_search")
	var effort csp.Effort
	if p.opts.FirstSolutionOnly {
		onSolution := func(s *csp.Store) bool {
			best := s.Vars()[height.ID()].Min() // all tops assigned: max top = height min
			snapshot(s, best)
			return false
		}
		sres, err := csp.Solve(st, m.k.PlaceVars(), opts, onSolution)
		if err != nil {
			return nil, err
		}
		effort = sres.Effort
		res.Reason = sres.Reason
		res.Optimal = false
	} else {
		var mres csp.MinimizeResult
		if p.opts.Workers > 1 {
			// Each worker builds the model again, with no metrics: the
			// phases and presolve counters of the build above are not
			// counted twice.
			rebuild := func() (*csp.Store, error) {
				wm, err := p.build(mods, nil)
				if err != nil {
					return nil, err
				}
				return wm.st, nil
			}
			mres, err = csp.MinimizeParallel(st, m.k.PlaceVars(), height, opts, snapshot, rebuild, p.opts.Workers)
		} else {
			mres, err = csp.Minimize(st, m.k.PlaceVars(), height, opts, snapshot)
		}
		if err != nil {
			return nil, err
		}
		effort = mres.Effort
		res.Reason = mres.Reason
		res.Optimal = mres.Found && mres.Optimal
		res.Stalled = mres.Stalled
		res.ObjectiveTrace = mres.BestObjectiveTrace
	}
	searchDur := searchT.Stop()
	res.Nodes, res.Backtracks, res.Propagations = effort.Nodes, effort.Backtracks, effort.Propagations
	if reg != nil {
		exportCounters(reg, effort, res.ObjectiveTrace, st, runsBase)
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

// model is one build of a Place call's constraint model.
type model struct {
	st      *csp.Store
	k       *geost.Kernel
	objects []*geost.Object // one per module, in module order
	height  *csp.Var
	// presolve reports the presolve pass; nil when it did not run.
	presolve *PresolveStats
	// warm maps each placement variable's id to its value in the warm
	// placement; nil without one.
	warm map[int]int
	// infeasible: presolve proved the instance infeasible at the root.
	infeasible bool
}

// build makes the model of mods: the geost model, then, for an
// optimising solve with presolve on, the presolve pass and the warm
// clip. Every call with the same modules makes the same model — the
// same variables with the same ids and domains, the same propagators in
// the same order — which is what lets each parallel worker search its
// own build. reg, when non-nil, receives the phase timings and
// presolve counters; workers pass nil.
func (p *Placer) build(mods []*module.Module, reg *obs.Registry) (*model, error) {
	buildT := reg.Timer("phase_model_build")

	st := csp.NewStore()
	if reg != nil {
		st.EnableTiming(true)
	}
	k := geost.New(st, p.region.W(), p.region.H())
	anchors := NewAnchorTable(p.region)
	objects := make([]*geost.Object, len(mods))
	for i, m := range mods {
		geoms := make([]geost.ShapeGeom, m.NumShapes())
		for si, s := range m.Shapes() {
			geoms[si] = anchors.ShapeGeom(s)
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
	m := &model{st: st, k: k, objects: objects, height: height}
	if p.opts.Presolve != PresolveOn || p.opts.FirstSolutionOnly {
		return m, nil
	}

	presolveT := reg.Timer("phase_presolve")
	pstats, perr := presolve.Apply(st, k, height)
	presolveT.Stop()
	m.presolve = &PresolveStats{
		AlternativesDropped: pstats.AlternativesDropped,
		LexConstraints:      pstats.ModulesOrdered,
		BoundDelta:          pstats.BoundDelta,
	}
	reg.Counter("presolve_alternatives_dropped").Add(int64(pstats.AlternativesDropped))
	reg.Counter("presolve_modules_ordered").Add(int64(pstats.ModulesOrdered))
	reg.Counter("presolve_bound_delta").Add(int64(pstats.BoundDelta))
	if perr == csp.ErrInconsistent {
		m.infeasible = true
		return m, nil
	}
	if perr != nil {
		return nil, perr
	}
	if pstats.WarmFound {
		m.presolve.WarmHeight = pstats.WarmObjective
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
		m.warm = make(map[int]int, len(objects))
		for i, o := range objects {
			m.warm[o.Place.ID()] = pstats.WarmValues[i]
		}
	}
	return m, nil
}

// runsByName maps each propagator name on st to its runs so far.
func runsByName(st *csp.Store) map[string]int64 {
	runs := map[string]int64{}
	for _, s := range st.PropagatorStats() {
		runs[s.Name] = s.Runs
	}
	return runs
}

// exportCounters adds the search's own effort counts to reg: the
// totals of e, solution leaves included, the incumbents of trace
// and the best objective, and each propagator's runs since the search
// started (runsBase). Like e.Propagations, the runs leave out the
// propagation of presolve and the warm clip before the search.
func exportCounters(reg *obs.Registry, e csp.Effort, trace []csp.ObjectivePoint, st *csp.Store, runsBase map[string]int64) {
	reg.Counter("solver_branches_total").Add(e.Branches)
	reg.Counter("solver_backtracks_total").Add(e.Backtracks)
	reg.Counter("solver_propagations_total").Add(e.Propagations)
	reg.Counter("solver_prunes_total").Add(e.Prunes)
	reg.Counter("solver_pruned_values_total").Add(e.PrunedValues)
	reg.Counter("solver_solutions_total").Add(int64(e.Solutions))
	reg.Gauge("solver_max_depth").SetMax(float64(e.MaxDepth))
	reg.Counter("solver_incumbents_total").Add(int64(len(trace)))
	if n := len(trace); n > 0 {
		reg.Gauge("solver_best_objective").Set(float64(trace[n-1].Objective))
	}
	for _, s := range st.PropagatorStats() {
		if d := s.Runs - runsBase[s.Name]; d > 0 {
			reg.Counter(`solver_propagator_runs_total{propagator="` + s.Name + `"}`).Add(d)
		}
	}
}

// chooser builds the branching-variable heuristic. It always exhausts
// the placement variables before touching auxiliary search variables
// (the height objective): branching on the objective first would turn
// the dive into exact-height packing and thrash.
//
// The heuristic is positional, not pointer-bound: the first
// len(objects) search variables are the placement variables in module
// order (k.PlaceVars ordering), on the caller's store and on every
// parallel worker's build alike. Capturing the caller's *Var pointers
// instead would make parallel workers branch on the wrong (frozen)
// store.
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
// ordering each node walks the object's live values in (y, x, shape)
// order (geost.Object.AppendBottomLeft).
func (p *Placer) valueOrderer(objects []*geost.Object) csp.ValueOrderer {
	if p.opts.ValueOrder == OrderLexicographic {
		return csp.AscendingValues
	}
	// Indexed by variable id (the last object's is the highest), which
	// every parallel worker's build repeats; the walk reads only the
	// objects' geometry, which no search writes.
	byVar := make([]*geost.Object, objects[len(objects)-1].Place.ID()+1)
	for _, o := range objects {
		byVar[o.Place.ID()] = o
	}
	return func(v *csp.Var, buf []int) []int {
		if id := v.ID(); id < len(byVar) && byVar[id] != nil {
			return byVar[id].AppendBottomLeft(buf, v.Domain())
		}
		return csp.AscendingValues(v, buf)
	}
}

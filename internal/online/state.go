package online

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
)

// StateConfig configures a session State.
type StateConfig struct {
	// Manager selects the greedy policy: "first-fit", "mer-best-fit" or
	// "occupied-space" (alias "adjacency"). Empty means first-fit.
	Manager string
	// UseAlternatives lets the greedy policy pick among a module's
	// design alternatives.
	UseAlternatives bool
	// Replan budgets the CP solves behind replanning and
	// defragmentation. Admission replans force FirstSolutionOnly (a
	// blocked arrival needs any feasible layout, fast); defragmentation
	// uses the options as given, so a Timeout or StallNodes here bounds
	// how long a defrag may optimise.
	Replan core.Options
	// Frames prices reconfigurations; the zero value is replaced by
	// fabric.DefaultFrameModel().
	Frames fabric.FrameModel
}

// SessionManagers lists the manager names NewState accepts, canonical
// form first.
func SessionManagers() []string {
	return []string{"first-fit", "mer-best-fit", "occupied-space", "adjacency"}
}

// State is a long-lived online placement session: the stateful
// engine Simulate drives too. Modules arrive (Place), depart (Release)
// and get compacted (Defrag) over the session's lifetime, against a
// shadow occupancy the engine keeps authoritative — every manager
// decision and every relocation is audited through ValidatePlacement
// before it is committed, so a buggy policy surfaces as an error, never
// as silent overlap.
//
// State is not safe for concurrent use; callers (the placement
// service's session store) serialise access per session.
type State struct {
	region    *fabric.Region
	mgr       Manager
	fm        fabric.FrameModel
	occ       *grid.Bitmap
	residents map[TaskID]Resident

	replan core.Options

	placed   int
	rejected int
	replans  int
	defrags  int
	moves    int
	reconfig time.Duration
}

// NewState opens a session on region with the configured manager.
func NewState(region *fabric.Region, cfg StateConfig) (*State, error) {
	if region == nil {
		return nil, fmt.Errorf("online: session needs a region")
	}
	var mgr Manager
	switch cfg.Manager {
	case "", "first-fit":
		mgr = &FirstFit{UseAlternatives: cfg.UseAlternatives}
	case "mer-best-fit":
		mgr = &BestFitMER{UseAlternatives: cfg.UseAlternatives}
	case "occupied-space", "adjacency":
		mgr = &OccupiedSpace{UseAlternatives: cfg.UseAlternatives}
	default:
		return nil, fmt.Errorf("online: unknown session manager %q (have %v)", cfg.Manager, SessionManagers())
	}
	fm := cfg.Frames
	if fm.FramesPerColumn == nil {
		fm = fabric.DefaultFrameModel()
	}
	return newState(region, mgr, fm, cfg.Replan)
}

// newState opens a session around an already chosen manager; NewState
// and SimulateObserved share it.
func newState(region *fabric.Region, mgr Manager, fm fabric.FrameModel, replan core.Options) (*State, error) {
	if err := fm.Validate(); err != nil {
		return nil, err
	}
	mgr.Reset(region)
	return &State{
		region:    region,
		mgr:       mgr,
		fm:        fm,
		occ:       grid.NewBitmap(region.W(), region.H()),
		residents: map[TaskID]Resident{},
		replan:    replan,
	}, nil
}

// ManagerName returns the session's greedy policy name.
func (s *State) ManagerName() string { return s.mgr.Name() }

// PlaceOutcome reports one admission attempt.
type PlaceOutcome struct {
	// Placed reports whether the module is now resident. False with a
	// nil error is a capacity rejection, not a fault.
	Placed bool
	// Placement is the chosen alternative and anchor when Placed.
	Placement Placement
	// Replanned reports that greedy placement failed and a CP replan
	// admitted the module by relocating residents.
	Replanned bool
	// Moves lists the relocations the replan performed, in apply order.
	Moves []MoveCost
	// Reconfig is the configuration-port time charged for this
	// admission: the newcomer's bitstream plus every relocation.
	Reconfig time.Duration
}

// Place admits one module under id. Greedy placement is tried first;
// when the manager finds no site, the CP placer replans the whole
// residency (design alternatives included) and the arrival is admitted
// into the relocated layout. An error means bad input or an internal
// invariant violation; a full region is (Placed=false, nil).
func (s *State) Place(id TaskID, mod *module.Module) (PlaceOutcome, error) {
	out, done, err := s.placeGreedy(id, mod)
	if err != nil || done {
		return out, err
	}
	return s.replanPlace(id, mod)
}

// PlaceGreedy is Place without the CP replan fallback: the degraded
// path the placement service uses when its solver capacity is
// saturated — a greedy decision costs microseconds, never a solve.
func (s *State) PlaceGreedy(id TaskID, mod *module.Module) (PlaceOutcome, error) {
	out, done, err := s.placeGreedy(id, mod)
	if err != nil || done {
		return out, err
	}
	s.rejected++
	return PlaceOutcome{}, nil
}

func (s *State) placeGreedy(id TaskID, mod *module.Module) (PlaceOutcome, bool, error) {
	if mod == nil {
		return PlaceOutcome{}, false, fmt.Errorf("online: task %d has no module", id)
	}
	if _, ok := s.residents[id]; ok {
		return PlaceOutcome{}, false, fmt.Errorf("online: task %d already resident", id)
	}
	p, ok := s.mgr.TryPlace(Task{ID: id, Module: mod})
	if !ok {
		return PlaceOutcome{}, false, nil
	}
	pts, err := ValidatePlacement(s.region, s.occ, mod, p)
	if err != nil {
		s.mgr.Release(id)
		return PlaceOutcome{}, false, fmt.Errorf("online: manager %s task %d: %w", s.mgr.Name(), id, err)
	}
	s.occ.SetPoints(pts, true)
	s.residents[id] = Resident{ID: id, Module: mod, Shape: p.Shape, At: p.At}
	s.placed++
	cost := s.cost(mod.Shape(p.Shape), p.At)
	s.reconfig += cost
	return PlaceOutcome{Placed: true, Placement: p, Reconfig: cost}, true, nil
}

// replanPlace is the fallback: a joint CP layout of residents plus the
// newcomer, with the relocations ordered so every intermediate state is
// valid, then the manager re-seeded onto the new layout.
func (s *State) replanPlace(id TaskID, mod *module.Module) (PlaceOutcome, error) {
	s.replans++
	res := s.residentsSorted()
	budget := s.replan
	budget.FirstSolutionOnly = true
	target, moves, stuck, err := relayout(s.region, res, mod, budget)
	if err != nil || !target.Found || stuck > 0 {
		// No layout, or a feasible layout without a safe move order:
		// reject rather than risk an invalid intermediate state.
		s.rejected++
		return PlaceOutcome{}, nil
	}
	after, occ, err := applyMoves(s.region, res, moves)
	if err != nil {
		return PlaceOutcome{}, fmt.Errorf("online: replan plan failed validation: %w", err)
	}
	newcomer := target.Placements[len(target.Placements)-1]
	p := Placement{Shape: newcomer.ShapeIndex, At: newcomer.At}
	pts, err := ValidatePlacement(s.region, occ, mod, p)
	if err != nil {
		return PlaceOutcome{}, fmt.Errorf("online: replan produced invalid newcomer placement: %w", err)
	}
	occ.SetPoints(pts, true)

	out := PlaceOutcome{Placed: true, Placement: p, Replanned: true, Moves: s.priceMoves(moves)}
	for _, mv := range out.Moves {
		out.Reconfig += mv.Reconfig
	}
	out.Reconfig += s.cost(mod.Shape(p.Shape), p.At)

	after = append(after, Resident{ID: id, Module: mod, Shape: p.Shape, At: p.At})
	if err := s.adopt(after, occ); err != nil {
		return PlaceOutcome{}, err
	}
	s.placed++
	s.moves += len(moves)
	s.reconfig += out.Reconfig
	return out, nil
}

// Release frees a resident module; releasing an unknown id is a no-op
// (the operation is idempotent so clients may retry it blindly).
func (s *State) Release(id TaskID) bool {
	r, ok := s.residents[id]
	if !ok {
		return false
	}
	delete(s.residents, id)
	s.occ.SetPoints(r.tiles(), false)
	s.mgr.Release(id)
	return true
}

// MoveCost is one relocation of a defragmentation or replan schedule,
// priced by the frame model.
type MoveCost struct {
	Move
	// Frames is the number of configuration frames the move rewrites.
	Frames int
	// Reconfig is the configuration-port time for those frames.
	Reconfig time.Duration
}

// DefragOutcome reports one compaction pass.
type DefragOutcome struct {
	// Moves is the ordered relocation schedule; empty when the layout
	// was already as tight as the placer could make it.
	Moves []MoveCost
	// Reconfig is the total configuration-port time of the schedule.
	Reconfig time.Duration
	// FragBefore and FragAfter are the free-space fragmentation metric
	// around the pass.
	FragBefore float64
	FragAfter  float64
}

// Defrag compacts the residency: the CP placer derives a tighter target
// layout, PlanCompaction orders the relocations, and the session adopts
// the result. With no residents (or no improvement) the outcome is
// empty and nil error. The replan budget's Timeout/StallNodes bound the
// solve; FirstSolutionOnly is NOT forced here because compaction exists
// to improve the layout, not merely to find one.
func (s *State) Defrag() (DefragOutcome, error) {
	out := DefragOutcome{
		FragBefore: metrics.Fragmentation(s.region, s.occ),
		FragAfter:  metrics.Fragmentation(s.region, s.occ),
	}
	if len(s.residents) == 0 {
		return out, nil
	}
	s.defrags++
	res := s.residentsSorted()
	moves, _, err := PlanCompaction(s.region, res, s.replan)
	if err != nil {
		return DefragOutcome{}, err
	}
	if len(moves) == 0 {
		return out, nil
	}
	after, occ, err := applyMoves(s.region, res, moves)
	if err != nil {
		return DefragOutcome{}, fmt.Errorf("online: defrag plan failed validation: %w", err)
	}
	if err := s.adopt(after, occ); err != nil {
		return DefragOutcome{}, err
	}
	out.Moves = s.priceMoves(moves)
	for _, mv := range out.Moves {
		out.Reconfig += mv.Reconfig
	}
	out.FragAfter = metrics.Fragmentation(s.region, s.occ)
	s.moves += len(moves)
	s.reconfig += out.Reconfig
	return out, nil
}

// StateStats is a point-in-time summary of the session.
type StateStats struct {
	Residents     int
	OccupiedTiles int
	// Utilization is occupied placeable tiles over all placeable tiles.
	Utilization float64
	// Fragmentation is the free-space fragmentation metric in the
	// occupied span (0 = one solid free block, →1 = badly scattered).
	Fragmentation float64
	Placed        int
	Rejected      int
	Replans       int
	Defrags       int
	Moves         int
	TotalReconfig time.Duration
}

// Stats summarises the session.
func (s *State) Stats() StateStats {
	occupied := 0
	//solverlint:allow nondeterminism order-independent sum over the residency
	for _, r := range s.residents {
		occupied += r.Module.Shape(r.Shape).Size()
	}
	return StateStats{
		Residents:     len(s.residents),
		OccupiedTiles: occupied,
		Utilization:   metrics.OverallUtilization(s.region, s.occ),
		Fragmentation: metrics.Fragmentation(s.region, s.occ),
		Placed:        s.placed,
		Rejected:      s.rejected,
		Replans:       s.replans,
		Defrags:       s.defrags,
		Moves:         s.moves,
		TotalReconfig: s.reconfig,
	}
}

// Residents returns the current residency in ascending id order.
func (s *State) Residents() []Resident { return s.residentsSorted() }

// Resident looks up one resident by id.
func (s *State) Resident(id TaskID) (Resident, bool) {
	r, ok := s.residents[id]
	return r, ok
}

func (s *State) residentsSorted() []Resident {
	out := make([]Resident, 0, len(s.residents))
	//solverlint:allow nondeterminism the slice is sorted by id immediately below
	for _, r := range s.residents {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// adopt commits a relocated layout, audited by applyMoves: the
// residency, its occupancy, and the greedy manager re-seeded onto it.
// Every placement was just validated against occ, so a manager refusal
// here is an invariant violation, not a capacity problem.
func (s *State) adopt(residents []Resident, occ *grid.Bitmap) error {
	s.occ = occ
	for _, r := range residents {
		s.residents[r.ID] = r
	}
	s.mgr.Reset(s.region)
	for _, r := range s.residentsSorted() {
		if !s.mgr.Preplace(r.ID, r.Module, Placement{Shape: r.Shape, At: r.At}) {
			return fmt.Errorf("online: manager %s rejected re-seeded resident %d at %v", s.mgr.Name(), r.ID, r.At)
		}
	}
	return nil
}

// cost prices one configuration of shape at anchor.
func (s *State) cost(shape *module.Shape, at grid.Point) time.Duration {
	frames := s.fm.FrameCount(s.region, grid.RectXYWH(at.X, at.Y, shape.W(), shape.H()))
	return s.fm.ReconfigTime(frames)
}

// priceMoves attaches frame counts and port time to a move schedule.
func (s *State) priceMoves(moves []Move) []MoveCost {
	out := make([]MoveCost, 0, len(moves))
	for _, mv := range moves {
		r, ok := s.residents[mv.ID]
		if !ok {
			continue
		}
		shape := r.Module.Shape(mv.Shape)
		frames := s.fm.FrameCount(s.region, grid.RectXYWH(mv.At.X, mv.At.Y, shape.W(), shape.H()))
		out = append(out, MoveCost{Move: mv, Frames: frames, Reconfig: s.fm.ReconfigTime(frames)})
	}
	return out
}

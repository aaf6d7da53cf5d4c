// Package rtsim plans and simulates deterministic runtime reconfigurable
// systems: a cyclic schedule of phases (module sets) executes on one
// reconfigurable region, and every phase switch streams the entering
// modules' partial bitstreams through the single configuration port.
// This is the "in-advance placement for deterministic run-time
// reconfigurable systems" setting of the paper: placements are computed
// offline, and the quality of those placements — including the use of
// design alternatives — shows up at run time as reconfiguration overhead.
//
// Two planning modes are provided. Fresh mode places every phase
// independently (best per-phase utilization, but modules shared between
// consecutive phases may move and must then be reconfigured). Persistent
// mode pins modules that survive a phase switch to their current
// position and places only the entering modules around them (no
// reconfiguration for survivors, possibly worse packing).
package rtsim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
)

// Phase is one configuration of the reconfigurable region: the modules
// that must be resident, and how long the phase runs.
type Phase struct {
	Name    string
	Modules []*module.Module
	Dwell   time.Duration
}

// Options configures planning.
type Options struct {
	// Placer configures each per-phase placement.
	Placer core.Options
	// FrameModel prices reconfiguration (zero value: DefaultFrameModel).
	FrameModel fabric.FrameModel
	// Persistent pins surviving modules across phase switches.
	Persistent bool
}

// PhasePlan is the planned execution of one phase.
type PhasePlan struct {
	Phase      Phase
	Result     *core.Result
	Entering   []string // modules configured at the switch into this phase
	Kept       []string // modules surviving in place
	SwitchTime time.Duration
}

// Timeline is the planned execution of the full schedule.
type Timeline struct {
	Plans       []PhasePlan
	TotalDwell  time.Duration
	TotalSwitch time.Duration
}

// Overhead returns the fraction of total time spent reconfiguring.
func (t *Timeline) Overhead() float64 {
	total := t.TotalDwell + t.TotalSwitch
	if total <= 0 {
		return 0
	}
	return float64(t.TotalSwitch) / float64(total)
}

// String summarises the timeline.
func (t *Timeline) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d phases, dwell %v, switch %v (%.2f%% overhead)\n",
		len(t.Plans), t.TotalDwell, t.TotalSwitch, t.Overhead()*100)
	for _, p := range t.Plans {
		fmt.Fprintf(&sb, "  %-12s switch=%8v enter=%d keep=%d util=%.1f%%\n",
			p.Phase.Name, p.SwitchTime, len(p.Entering), len(p.Kept),
			p.Result.Utilization*100)
	}
	return sb.String()
}

// placedModule tracks a resident module between phases.
type placedModule struct {
	placement core.Placement
}

// Plan computes placements and switch costs for the schedule on region.
// Phases are entered in order starting from an empty region; the region
// itself is never modified.
func Plan(region *fabric.Region, phases []Phase, opts Options) (*Timeline, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("rtsim: empty schedule")
	}
	if opts.FrameModel.FrameBytes == 0 {
		opts.FrameModel = fabric.DefaultFrameModel()
	}
	if err := opts.FrameModel.Validate(); err != nil {
		return nil, err
	}

	// Per-phase plan timings and entering/kept totals ride on the same
	// registry as the solver metrics of the per-phase placements.
	reg := opts.Placer.Metrics

	tl := &Timeline{}
	resident := map[string]placedModule{}
	for pi, ph := range phases {
		if err := validatePhase(ph); err != nil {
			return nil, fmt.Errorf("rtsim: phase %d: %w", pi, err)
		}
		var plan PhasePlan
		plan.Phase = ph
		var err error
		phaseT := reg.Timer("rtsim_phase_plan")
		if opts.Persistent {
			plan, err = planPersistent(region, ph, resident, opts)
		} else {
			plan, err = planFresh(region, ph, resident, opts)
		}
		phaseT.Stop()
		if err != nil {
			return nil, fmt.Errorf("rtsim: phase %s: %w", ph.Name, err)
		}
		reg.Counter("rtsim_phases_total").Inc()
		reg.Counter("rtsim_entering_total").Add(int64(len(plan.Entering)))
		reg.Counter("rtsim_kept_total").Add(int64(len(plan.Kept)))
		// Update residency and charge the configuration port for the
		// entering modules.
		resident = map[string]placedModule{}
		for _, p := range plan.Result.Placements {
			resident[p.Module.Name()] = placedModule{placement: p}
		}
		for _, name := range plan.Entering {
			p := resident[name].placement
			frames := opts.FrameModel.FrameCount(region, p.Bounds())
			plan.SwitchTime += opts.FrameModel.ReconfigTime(frames)
		}
		tl.TotalSwitch += plan.SwitchTime
		tl.TotalDwell += ph.Dwell
		tl.Plans = append(tl.Plans, plan)
	}
	reg.Gauge("rtsim_switch_overhead").Set(tl.Overhead())
	return tl, nil
}

func validatePhase(ph Phase) error {
	if ph.Name == "" {
		return fmt.Errorf("unnamed phase")
	}
	if len(ph.Modules) == 0 {
		return fmt.Errorf("phase %s has no modules", ph.Name)
	}
	if ph.Dwell < 0 {
		return fmt.Errorf("phase %s has negative dwell", ph.Name)
	}
	seen := map[string]bool{}
	for _, m := range ph.Modules {
		if seen[m.Name()] {
			return fmt.Errorf("phase %s: duplicate module %s", ph.Name, m.Name())
		}
		seen[m.Name()] = true
	}
	return nil
}

// planFresh places the whole phase from scratch; a surviving module only
// avoids reconfiguration if the fresh placement happens to keep its
// position and shape.
func planFresh(region *fabric.Region, ph Phase, resident map[string]placedModule, opts Options) (PhasePlan, error) {
	plan := PhasePlan{Phase: ph}
	res, err := core.New(region, opts.Placer).Place(ph.Modules)
	if err != nil {
		return plan, err
	}
	if !res.Found {
		return plan, fmt.Errorf("no feasible placement")
	}
	plan.Result = res
	for _, p := range res.Placements {
		prev, ok := resident[p.Module.Name()]
		if ok && prev.placement.At == p.At && prev.placement.ShapeIndex == p.ShapeIndex &&
			prev.placement.Shape().Equal(p.Shape()) {
			plan.Kept = append(plan.Kept, p.Module.Name())
		} else {
			plan.Entering = append(plan.Entering, p.Module.Name())
		}
	}
	return plan, nil
}

// planPersistent pins surviving modules and places only the entering
// ones on the remaining area.
func planPersistent(region *fabric.Region, ph Phase, resident map[string]placedModule, opts Options) (PhasePlan, error) {
	plan := PhasePlan{Phase: ph}
	var kept []core.Placement
	var entering []*module.Module
	for _, m := range ph.Modules {
		if prev, ok := resident[m.Name()]; ok {
			kept = append(kept, prev.placement)
			plan.Kept = append(plan.Kept, m.Name())
		} else {
			entering = append(entering, m)
			plan.Entering = append(plan.Entering, m.Name())
		}
	}

	if len(entering) == 0 {
		var err error
		plan.Result, err = resultFromPlacements(region, kept)
		return plan, err
	}

	// Mask the survivors' tiles as static on a cloned device and place
	// only the entering modules around them.
	masked := region.Device().Clone()
	off := region.DeviceBounds()
	for _, p := range kept {
		for _, t := range p.Tiles() {
			masked.MaskStatic(grid.RectXYWH(off.MinX+t.X, off.MinY+t.Y, 1, 1))
		}
	}
	sub := masked.Region(off)
	res, err := core.New(sub, opts.Placer).Place(entering)
	if err != nil {
		return plan, err
	}
	if !res.Found {
		return plan, fmt.Errorf("no feasible placement for entering modules")
	}
	plan.Result, err = resultFromPlacements(region, append(kept, res.Placements...))
	return plan, err
}

// resultFromPlacements packages placements (already known valid on
// region) as a core.Result with recomputed metrics, and re-validates
// them defensively.
func resultFromPlacements(region *fabric.Region, ps []core.Placement) (*core.Result, error) {
	res := &core.Result{Found: true, Placements: ps}
	for _, p := range ps {
		if top := p.Top(); top > res.Height {
			res.Height = top
		}
	}
	res.Utilization = metrics.Utilization(region, res.Occupancy(region))
	if err := res.Validate(region); err != nil {
		return nil, fmt.Errorf("rtsim: merged placement: %w", err)
	}
	return res, nil
}

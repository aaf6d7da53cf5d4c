// Package online simulates online module placement on a reconfigurable
// region: tasks (module instances) arrive and depart at run time and a
// space manager decides, per arrival, where — and whether — the module
// can be placed. It implements the management strategies the paper's
// related-work section classifies: free-space management (first-fit and
// maximal-empty-rectangle best-fit, after Bazargan et al. [4]),
// occupied-space management (adjacency-guided, after Ahmadinia et
// al. [5]), and 1D slot-style placement; all against the same
// heterogeneous fabric model as the offline placer.
//
// The simulator measures service level (fraction of arrivals placed),
// time-weighted utilization and fragmentation, and configuration-port
// cost — the quantities that motivate the paper's offline,
// alternatives-aware approach.
package online

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/obs"
)

// TaskID identifies a task within one simulation.
type TaskID int

// Task is one module instance with an arrival time and a residency
// duration, in abstract time units.
type Task struct {
	ID       TaskID
	Module   *module.Module
	Arrive   int64
	Duration int64
}

// Placement is a manager's decision: which design alternative at which
// anchor.
type Placement struct {
	Shape int
	At    grid.Point
}

// Manager is an online placement policy. Reset is called once per
// session with the region; TryPlace must return a placement that the
// manager itself considers valid (the session engine independently
// verifies it); Release frees a previously placed task. Preplace adopts
// a placement computed outside the manager — by a CP replan or a
// defragmentation that changed the layout behind the greedy policy's
// back — and reports false when the manager refuses it.
type Manager interface {
	Name() string
	Reset(region *fabric.Region)
	TryPlace(t Task) (Placement, bool)
	Release(id TaskID)
	Preplace(id TaskID, m *module.Module, p Placement) bool
}

// Stats aggregates one simulation run.
type Stats struct {
	Offered  int
	Accepted int
	Rejected int
	// ServiceLevel is Accepted/Offered — the paper's "amount of module
	// requests that can be fulfilled".
	ServiceLevel float64
	// MeanUtil is the time-weighted fraction of placeable tiles carrying
	// module logic while at least one task is resident.
	MeanUtil float64
	// PeakUtil is the maximum instantaneous utilization.
	PeakUtil float64
	// MeanFrag is the mean free-space fragmentation sampled at arrivals.
	MeanFrag float64
	// TotalReconfig is the summed configuration-port time of all
	// accepted placements and relocations.
	TotalReconfig time.Duration
	// Moves counts relocations of resident modules (defragmentation).
	Moves int
	// Horizon is the simulated time span.
	Horizon int64
}

// String summarises the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("service=%.1f%% util=%.1f%% peak=%.1f%% frag=%.2f reconfig=%v (%d/%d accepted)",
		s.ServiceLevel*100, s.MeanUtil*100, s.PeakUtil*100, s.MeanFrag,
		s.TotalReconfig, s.Accepted, s.Offered)
}

// departure is a pending release in the event heap.
type departure struct {
	t  int64
	id TaskID
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }

// Less orders by departure time, breaking same-tick ties by task id so
// simultaneous departures release in a deterministic order rather than
// whatever heap-internal order the insertion sequence produced.
func (h departureHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].id < h[j].id
}
func (h departureHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x interface{}) { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate runs the task stream through the manager on region with
// greedy admission only. The frame model prices accepted placements'
// reconfiguration; pass fabric.DefaultFrameModel() for realistic
// numbers. The run is rejected with an error if the manager ever
// returns an invalid or overlapping placement — manager bugs must not
// masquerade as good service.
func Simulate(region *fabric.Region, mgr Manager, tasks []Task, fm fabric.FrameModel) (*Stats, error) {
	return SimulateObserved(region, mgr, tasks, fm, nil, nil)
}

// SimulateObserved is the arrival/departure driver behind Simulate: it
// replays the stream on a session State built around mgr, releasing
// departures before each arrival. A nil replan admits greedily
// (State.PlaceGreedy); a non-nil replan is the CP replan budget of
// State.Place, which relocates residents to admit an arrival the greedy
// policy rejects. When reg is non-nil, each arrival's placement-decision
// latency is recorded into per-outcome histograms
// (online_place_latency_seconds{outcome=...}), and
// request/accept/reject/move/replan totals plus the final service level
// and mean utilization are published under online_* metric names. A nil
// reg adds no overhead.
func SimulateObserved(region *fabric.Region, mgr Manager, tasks []Task, fm fabric.FrameModel, replan *core.Options, reg *obs.Registry) (*Stats, error) {
	var budget core.Options
	if replan != nil {
		budget = *replan
	}
	st, err := newState(region, mgr, fm, budget)
	if err != nil {
		return nil, err
	}
	sorted := make([]Task, len(tasks))
	copy(sorted, tasks)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrive < sorted[j].Arrive })

	var deps departureHeap
	stats := &Stats{}
	placeable := region.PlaceableCount()
	var utilIntegral float64 // occupied-tiles × time
	var lastT int64
	var fragSamples []float64

	advance := func(t int64) {
		if t > lastT {
			utilIntegral += float64(st.occ.Count()) * float64(t-lastT)
			lastT = t
		}
	}

	for _, task := range sorted {
		// Process departures up to the arrival instant (inclusive: a
		// task departing at t frees space for an arrival at t).
		for len(deps) > 0 && deps[0].t <= task.Arrive {
			d := heap.Pop(&deps).(departure)
			advance(d.t)
			st.Release(d.id)
		}
		advance(task.Arrive)

		stats.Offered++
		fragSamples = append(fragSamples, metrics.Fragmentation(region, st.occ))
		var t0 time.Time
		if reg != nil {
			reg.Counter("online_requests_total").Inc()
			//solverlint:allow nondeterminism wall-clock telemetry only: the measured latency feeds a histogram, never a placement decision
			t0 = time.Now()
		}
		var out PlaceOutcome
		if replan != nil {
			out, err = st.Place(task.ID, task.Module)
		} else {
			out, err = st.PlaceGreedy(task.ID, task.Module)
		}
		if err != nil {
			return nil, err
		}
		if reg != nil {
			outcome := "rejected"
			if out.Placed {
				outcome = "accepted"
			}
			//solverlint:allow nondeterminism wall-clock telemetry only: the measured latency feeds a histogram, never a placement decision
			reg.Histogram(`online_place_latency_seconds{outcome="` + outcome + `"}`).Observe(time.Since(t0).Seconds())
		}
		if !out.Placed {
			continue
		}
		if u := metrics.OverallUtilization(region, st.occ); u > stats.PeakUtil {
			stats.PeakUtil = u
		}
		heap.Push(&deps, departure{t: task.Arrive + task.Duration, id: task.ID})
	}
	// Drain.
	for len(deps) > 0 {
		d := heap.Pop(&deps).(departure)
		advance(d.t)
		st.Release(d.id)
	}

	stats.Accepted, stats.Rejected = st.placed, st.rejected
	stats.Moves, stats.TotalReconfig = st.moves, st.reconfig
	stats.Horizon = lastT
	if stats.Offered > 0 {
		stats.ServiceLevel = float64(stats.Accepted) / float64(stats.Offered)
	}
	if lastT > 0 && placeable > 0 {
		stats.MeanUtil = utilIntegral / (float64(placeable) * float64(lastT))
	}
	stats.MeanFrag = metrics.Summarize(fragSamples).Mean
	if reg != nil {
		reg.Counter("online_accepted_total").Add(int64(stats.Accepted))
		reg.Counter("online_rejected_total").Add(int64(stats.Rejected))
		reg.Counter("online_moves_total").Add(int64(stats.Moves))
		reg.Counter("online_replans_total").Add(int64(st.replans))
		reg.Gauge("online_service_level").Set(stats.ServiceLevel)
		reg.Gauge("online_mean_utilization").Set(stats.MeanUtil)
	}
	return stats, nil
}

// ValidatePlacement checks M_a, M_b and M_c for one online placement
// through core.Fit and returns the absolute tiles on success. The
// session engine audits every manager answer and relocation with it,
// and loadgen's shadow revalidation audits the service from the outside.
func ValidatePlacement(region *fabric.Region, occ *grid.Bitmap, m *module.Module, p Placement) ([]grid.Point, error) {
	if p.Shape < 0 || p.Shape >= m.NumShapes() {
		return nil, fmt.Errorf("shape index %d out of range", p.Shape)
	}
	shape := m.Shape(p.Shape)
	if err := core.Fit(region, occ, shape, p.At); err != nil {
		return nil, err
	}
	return shape.PointsAt(p.At), nil
}

// Package baseline implements the heuristic placers the paper's related
// work section positions against the constraint-programming approach:
// first-fit and bottom-left-decreasing online-style packers, a best-fit
// variant, and a simulated-annealing optimiser. They share the core
// placer's valid-anchor machinery (so heterogeneity is handled
// identically) and report results in the same Result type, making
// head-to-head utilization comparisons direct.
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
)

// Algorithm selects a baseline placer.
type Algorithm uint8

// Baseline algorithms.
const (
	// FirstFit places modules in input order at the bottom-left-most
	// feasible anchor.
	FirstFit Algorithm = iota
	// BottomLeftDecreasing sorts modules by size (largest first) and
	// then first-fits them.
	BottomLeftDecreasing
	// BestFit places each module (input order) at the anchor minimising
	// the resulting occupied height.
	BestFit
	// Annealing refines a bottom-left-decreasing start by simulated
	// annealing over single-module moves.
	Annealing
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case FirstFit:
		return "first-fit"
	case BottomLeftDecreasing:
		return "bottom-left-decreasing"
	case BestFit:
		return "best-fit"
	case Annealing:
		return "annealing"
	}
	return "unknown"
}

// Algorithms lists all baseline placers.
func Algorithms() []Algorithm {
	return []Algorithm{FirstFit, BottomLeftDecreasing, BestFit, Annealing}
}

// Options configures baseline placement.
type Options struct {
	// UseAlternatives lets the heuristic choose among all design
	// alternatives of a module; otherwise only the primary shape is
	// used.
	UseAlternatives bool
	// Seed drives the annealing random source.
	Seed int64
	// Iterations bounds annealing moves (default 20000).
	Iterations int
}

// candidate is one (shape, anchor) pair of a module, with its tiles
// pre-translated relative to the anchor for fast occupancy tests.
type candidate struct {
	shapeIdx int
	points   []grid.Point // shape-relative
	w, h     int
}

type placedState struct {
	region  *fabric.Region
	occ     *grid.Bitmap
	anchors [][]*grid.Bitmap // per module, per shape
	cands   [][]candidate    // per module, per shape
	mods    []*module.Module
}

func newState(region *fabric.Region, mods []*module.Module, useAlts bool) (*placedState, error) {
	s := &placedState{
		region:  region,
		occ:     grid.NewBitmap(region.W(), region.H()),
		anchors: make([][]*grid.Bitmap, len(mods)),
		cands:   make([][]candidate, len(mods)),
		mods:    mods,
	}
	table := core.NewAnchorTable(region)
	for i, m := range mods {
		nShapes := m.NumShapes()
		if !useAlts {
			nShapes = 1
		}
		any := false
		for si := 0; si < nShapes; si++ {
			sh := m.Shape(si)
			va := table.Anchors(sh)
			s.anchors[i] = append(s.anchors[i], va)
			s.cands[i] = append(s.cands[i], candidate{
				shapeIdx: si,
				points:   sh.Points(),
				w:        sh.W(),
				h:        sh.H(),
			})
			if va.Count() > 0 {
				any = true
			}
		}
		if !any {
			return nil, fmt.Errorf("baseline: module %s has no feasible placement", m.Name())
		}
	}
	return s, nil
}

// fits reports whether module i's shape si fits at (x, y) given current
// occupancy.
func (s *placedState) fits(i, si, x, y int) bool {
	if !s.anchors[i][si].Get(x, y) {
		return false
	}
	return !s.occ.AnyAt(s.cands[i][si].points, grid.Pt(x, y))
}

func (s *placedState) paint(i, si, x, y int, v bool) {
	for _, p := range s.cands[i][si].points {
		s.occ.Set(p.X+x, p.Y+y, v)
	}
}

// bottomLeft returns the bottom-left-most feasible (shape, anchor) of
// module i, or ok=false.
func (s *placedState) bottomLeft(i int) (si, x, y int, ok bool) {
	for yy := 0; yy < s.region.H(); yy++ {
		for xx := 0; xx < s.region.W(); xx++ {
			for ci := range s.cands[i] {
				if s.fits(i, ci, xx, yy) {
					return ci, xx, yy, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// bestFit returns the feasible (shape, anchor) of module i minimising
// (resulting top, y, x), or ok=false.
func (s *placedState) bestFit(i, currentTop int) (si, x, y int, ok bool) {
	bestTop := 1 << 30
	for yy := 0; yy < s.region.H(); yy++ {
		if ok && yy >= bestTop {
			break // anchors at or above the best top cannot improve
		}
		for xx := 0; xx < s.region.W(); xx++ {
			for ci := range s.cands[i] {
				if !s.fits(i, ci, xx, yy) {
					continue
				}
				top := yy + s.cands[i][ci].h
				if top < currentTop {
					top = currentTop
				}
				if !ok || top < bestTop {
					ok = true
					bestTop = top
					si, x, y = ci, xx, yy
				}
			}
		}
	}
	return si, x, y, ok
}

// Place runs the selected baseline and returns a core.Result (with
// Optimal always false: these are heuristics).
func Place(region *fabric.Region, mods []*module.Module, alg Algorithm, opts Options) (*core.Result, error) {
	start := time.Now()
	if len(mods) == 0 {
		return nil, fmt.Errorf("baseline: no modules to place")
	}
	st, err := newState(region, mods, opts.UseAlternatives)
	if err != nil {
		return nil, err
	}

	order := make([]int, len(mods))
	for i := range order {
		order[i] = i
	}
	if alg == BottomLeftDecreasing || alg == Annealing {
		sortBySizeDesc(order, mods)
	}

	placements := make([]core.Placement, len(mods))
	placedOK := true
	currentTop := 0
	for _, i := range order {
		var si, x, y int
		var ok bool
		if alg == BestFit {
			si, x, y, ok = st.bestFit(i, currentTop)
		} else {
			si, x, y, ok = st.bottomLeft(i)
		}
		if !ok {
			placedOK = false
			break
		}
		st.paint(i, si, x, y, true)
		placements[i] = core.Placement{Module: mods[i], ShapeIndex: si, At: grid.Pt(x, y)}
		if top := y + st.cands[i][si].h; top > currentTop {
			currentTop = top
		}
	}

	res := &core.Result{}
	if placedOK {
		res.Found = true
		res.Placements = placements
		if alg == Annealing {
			anneal(st, placements, opts)
		}
		res.Height = maxTop(placements)
		res.Utilization = metrics.Utilization(region, res.Occupancy(region))
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func sortBySizeDesc(order []int, mods []*module.Module) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && mods[order[j]].MinSize() > mods[order[j-1]].MinSize(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func maxTop(ps []core.Placement) int {
	top := 0
	for _, p := range ps {
		if t := p.Top(); t > top {
			top = t
		}
	}
	return top
}

// anneal refines placements in-place by simulated annealing: random
// single-module relocations, accepted by the Metropolis criterion on a
// cost mixing occupied height (dominant) and total module elevation
// (gradient within equal heights).
func anneal(st *placedState, placements []core.Placement, opts Options) {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 20000
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	cost := func() float64 {
		h := 0
		sumTop := 0
		for _, p := range placements {
			t := p.Top()
			if t > h {
				h = t
			}
			sumTop += t
		}
		return float64(h)*1000 + float64(sumTop)
	}

	cur := cost()
	t0 := 200.0
	for it := 0; it < iters; it++ {
		temp := t0 * math.Pow(0.001/t0, float64(it)/float64(iters))
		i := rng.Intn(len(placements))
		old := placements[i]
		oldIdx := shapeStateIndex(st, i, old.ShapeIndex)
		if oldIdx < 0 {
			continue
		}
		st.paint(i, oldIdx, old.At.X, old.At.Y, false)

		// Draw a random candidate anchor biased low: pick a random row
		// from the lower half more often.
		ci := rng.Intn(len(st.cands[i]))
		x := rng.Intn(st.region.W())
		y := rng.Intn(st.region.H())
		if rng.Intn(2) == 0 {
			y = rng.Intn(st.region.H()/2 + 1)
		}
		if !st.fits(i, ci, x, y) {
			st.paint(i, oldIdx, old.At.X, old.At.Y, true)
			continue
		}
		st.paint(i, ci, x, y, true)
		placements[i] = core.Placement{Module: old.Module, ShapeIndex: st.cands[i][ci].shapeIdx, At: grid.Pt(x, y)}
		nxt := cost()
		if nxt <= cur || rng.Float64() < math.Exp((cur-nxt)/temp) {
			cur = nxt
			continue
		}
		// Reject: restore.
		st.paint(i, ci, x, y, false)
		st.paint(i, oldIdx, old.At.X, old.At.Y, true)
		placements[i] = old
	}
}

// shapeStateIndex maps a module's shape index back to its slot in the
// state's candidate list (identity when alternatives are enabled, 0
// otherwise).
func shapeStateIndex(st *placedState, i, shapeIdx int) int {
	for ci, c := range st.cands[i] {
		if c.shapeIdx == shapeIdx {
			return ci
		}
	}
	return -1
}

package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

func rectModule(name string, w, h int) *module.Module {
	var tiles []module.Tile
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tiles = append(tiles, module.Tile{At: grid.Pt(x, y), Kind: fabric.CLB})
		}
	}
	m, err := module.NewModule(name, module.MustShape(tiles))
	if err != nil {
		panic(err)
	}
	return m
}

func barModule(name string, n int) *module.Module {
	// Two alternatives: horizontal n x 1 and vertical 1 x n.
	var hTiles, vTiles []module.Tile
	for i := 0; i < n; i++ {
		hTiles = append(hTiles, module.Tile{At: grid.Pt(i, 0), Kind: fabric.CLB})
		vTiles = append(vTiles, module.Tile{At: grid.Pt(0, i), Kind: fabric.CLB})
	}
	m, err := module.NewModule(name, module.MustShape(hTiles), module.MustShape(vTiles))
	if err != nil {
		panic(err)
	}
	return m
}

func TestPlaceSingleModule(t *testing.T) {
	r := fabric.Homogeneous(4, 4).FullRegion()
	p := New(r, Options{})
	res, err := p.Place([]*module.Module{rectModule("a", 2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Optimal || res.Height != 2 {
		t.Fatalf("result: %+v", res)
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
	if res.Utilization != 0.5 { // 4 tiles over 2 rows × 4 cols
		t.Fatalf("utilization = %v, want 0.5", res.Utilization)
	}
}

func TestPlaceOptimalHeightKnown(t *testing.T) {
	// Three 2x2 in a 4-wide region: optimal height 4.
	r := fabric.Homogeneous(4, 8).FullRegion()
	p := New(r, Options{})
	mods := []*module.Module{
		rectModule("a", 2, 2), rectModule("b", 2, 2), rectModule("c", 2, 2),
	}
	res, err := p.Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Height != 4 || !res.Optimal {
		t.Fatalf("result: %v", res)
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceAlternativesReduceHeight(t *testing.T) {
	// 4-wide region, two 4-tile bars. Vertical-only: height 4.
	// With a horizontal alternative: height 2.
	r := fabric.Homogeneous(4, 8).FullRegion()
	p := New(r, Options{})

	with := []*module.Module{barModule("a", 4), barModule("b", 4)}
	resWith, err := p.Place(with)
	if err != nil {
		t.Fatal(err)
	}
	var without []*module.Module
	for _, name := range []string{"a", "b"} {
		m, err := barModule(name, 4).WithShapes(1) // vertical only
		if err != nil {
			t.Fatal(err)
		}
		without = append(without, m)
	}
	resWithout, err := p.Place(without)
	if err != nil {
		t.Fatal(err)
	}
	if resWith.Height != 2 || resWithout.Height != 4 {
		t.Fatalf("heights with/without = %d/%d, want 2/4", resWith.Height, resWithout.Height)
	}
	if resWith.Utilization <= resWithout.Utilization {
		t.Fatalf("utilization with=%v without=%v", resWith.Utilization, resWithout.Utilization)
	}
}

func TestPlaceHeterogeneousBRAMAlignment(t *testing.T) {
	// Region with one BRAM column; module demands a BRAM tile: the
	// placement must put it on the BRAM column.
	dev := fabric.NewDevice("one-bram", 5, 4, func(x, y int) fabric.Kind {
		if x == 3 {
			return fabric.BRAM
		}
		return fabric.CLB
	})
	r := dev.FullRegion()
	m, err := module.NewModule("mem", module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.BRAM},
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(r, Options{}).Place([]*module.Module{m})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no placement found")
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
	if res.Placements[0].At.X != 2 {
		t.Fatalf("anchor x = %d, want 2 (BRAM alignment)", res.Placements[0].At.X)
	}
}

func TestPlaceInfeasibleModuleErrors(t *testing.T) {
	r := fabric.Homogeneous(3, 3).FullRegion()
	_, err := New(r, Options{}).Place([]*module.Module{rectModule("big", 4, 4)})
	if err == nil || !strings.Contains(err.Error(), "big") {
		t.Fatalf("err = %v, want mention of module", err)
	}
}

func TestPlaceJointlyInfeasible(t *testing.T) {
	// Two 2x2 modules in a 2x3 region: individually placeable, jointly
	// impossible.
	r := fabric.Homogeneous(2, 3).FullRegion()
	res, err := New(r, Options{}).Place([]*module.Module{
		rectModule("a", 2, 2), rectModule("b", 2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("found impossible placement: %v", res)
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err) // Validate on not-found results is a no-op
	}
}

func TestPlaceNoModulesErrors(t *testing.T) {
	r := fabric.Homogeneous(3, 3).FullRegion()
	if _, err := New(r, Options{}).Place(nil); err == nil {
		t.Fatal("no error for empty module list")
	}
}

func TestPlaceFirstSolutionOnly(t *testing.T) {
	r := fabric.Homogeneous(6, 12).FullRegion()
	mods := []*module.Module{
		rectModule("a", 3, 2), rectModule("b", 2, 3), rectModule("c", 2, 2),
	}
	res, err := New(r, Options{FirstSolutionOnly: true}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Optimal {
		t.Fatalf("first-solution result: %v", res)
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceTimeoutAnytime(t *testing.T) {
	// A big instance with a tiny budget: we still get a valid placement
	// (bottom-left dives to a first solution quickly), not optimal proof.
	r := fabric.Homogeneous(12, 40).FullRegion()
	rng := rand.New(rand.NewSource(42))
	var mods []*module.Module
	for i := 0; i < 10; i++ {
		m, err := module.GenerateAlternatives(
			string(rune('a'+i)),
			module.Demand{CLB: 8 + rng.Intn(12)},
			module.AlternativeOptions{},
		)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	res, err := New(r, Options{Timeout: 300 * time.Millisecond}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no placement within budget")
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceStrategiesAgreeOnOptimum(t *testing.T) {
	r := fabric.Homogeneous(5, 10).FullRegion()
	mods := []*module.Module{
		rectModule("a", 2, 2), rectModule("b", 3, 2), rectModule("c", 2, 1),
	}
	heights := map[string]int{}
	for _, s := range []Strategy{StrategyFirstFail, StrategyLargestFirst, StrategyInputOrder} {
		for _, v := range []ValueOrder{OrderBottomLeft, OrderLexicographic} {
			res, err := New(r, Options{Strategy: s, ValueOrder: v}).Place(mods)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || !res.Optimal {
				t.Fatalf("%v/%v: %v", s, v, res)
			}
			heights[s.String()+"/"+v.String()] = res.Height
			if err := res.Validate(r); err != nil {
				t.Fatalf("%v/%v: %v", s, v, err)
			}
		}
	}
	first := -1
	for k, h := range heights {
		if first == -1 {
			first = h
		}
		if h != first {
			t.Fatalf("strategies disagree on optimum: %v (%s)", heights, k)
		}
	}
}

// TestPlaceMatchesBruteForce cross-checks the CP optimum against
// exhaustive enumeration on tiny random instances.
func TestPlaceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		W := 3 + rng.Intn(2)
		H := 4 + rng.Intn(2)
		r := fabric.Homogeneous(W, H).FullRegion()
		n := 2 + rng.Intn(2)
		var mods []*module.Module
		for i := 0; i < n; i++ {
			w := 1 + rng.Intn(2)
			h := 1 + rng.Intn(2)
			mods = append(mods, rectModule(string(rune('a'+i)), w, h))
		}
		res, err := New(r, Options{}).Place(mods)
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteForceMinHeight(W, H, mods)
		if res.Found != feasible {
			t.Fatalf("trial %d: found=%v brute=%v", trial, res.Found, feasible)
		}
		if res.Found {
			if err := res.Validate(r); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if res.Height != want {
				t.Fatalf("trial %d: CP height %d, brute force %d", trial, res.Height, want)
			}
		}
	}
}

// bruteForceMinHeight enumerates all placements of rectangular CLB
// modules (first shape only) and returns the minimal occupied height.
func bruteForceMinHeight(W, H int, mods []*module.Module) (int, bool) {
	type box struct{ w, h int }
	boxes := make([]box, len(mods))
	for i, m := range mods {
		s := m.Shape(0)
		boxes[i] = box{s.W(), s.H()}
	}
	best := H + 1
	var rects []grid.Rect
	var rec func(i int)
	rec = func(i int) {
		if i == len(boxes) {
			top := 0
			for _, r := range rects {
				if r.MaxY > top {
					top = r.MaxY
				}
			}
			if top < best {
				best = top
			}
			return
		}
		b := boxes[i]
		for y := 0; y+b.h <= H; y++ {
			for x := 0; x+b.w <= W; x++ {
				cand := grid.RectXYWH(x, y, b.w, b.h)
				ok := true
				for _, r := range rects {
					if r.Overlaps(cand) {
						ok = false
						break
					}
				}
				if ok {
					rects = append(rects, cand)
					rec(i + 1)
					rects = rects[:len(rects)-1]
				}
			}
		}
	}
	rec(0)
	return best, best <= H
}

func TestResultString(t *testing.T) {
	r := fabric.Homogeneous(4, 4).FullRegion()
	res, err := New(r, Options{}).Place([]*module.Module{rectModule("a", 2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "optimal") {
		t.Fatalf("String = %q", res.String())
	}
	empty := &Result{}
	if !strings.Contains(empty.String(), "no placement") {
		t.Fatalf("empty String = %q", empty.String())
	}
	p := res.Placements[0]
	if !strings.Contains(p.String(), "a@") {
		t.Fatalf("placement String = %q", p.String())
	}
}

func TestPlaceStrongPropagationSameOptimum(t *testing.T) {
	r := fabric.Homogeneous(5, 10).FullRegion()
	mods := []*module.Module{
		rectModule("a", 2, 2), rectModule("b", 3, 2), rectModule("c", 2, 3),
	}
	plain, err := New(r, Options{}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := New(r, Options{StrongPropagation: true}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Optimal || !strong.Optimal || plain.Height != strong.Height {
		t.Fatalf("optima differ: plain=%v strong=%v", plain, strong)
	}
	if err := strong.Validate(r); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceBusRowsConstraint(t *testing.T) {
	r := fabric.Homogeneous(8, 12).FullRegion()
	mods := []*module.Module{
		rectModule("a", 3, 2), rectModule("b", 3, 2), rectModule("c", 2, 2),
	}
	res, err := New(r, Options{BusRows: []int{6}}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no placement with bus constraint")
	}
	for _, p := range res.Placements {
		b := p.Bounds()
		if !(b.MinY <= 6 && 6 < b.MaxY) {
			t.Fatalf("%v does not cross bus row 6", p)
		}
	}
	// An unreachable bus row makes everything infeasible at AddObject.
	if _, err := New(r, Options{BusRows: []int{100}}).Place(mods); err == nil {
		t.Fatal("unreachable bus row accepted")
	}
}

// TestPlaceHeterogeneousMatchesBruteForce cross-checks the CP optimum on
// small heterogeneous instances (BRAM column, polymorphic modules)
// against exhaustive enumeration over shapes × anchors.
func TestPlaceHeterogeneousMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		W := 5 + rng.Intn(2)
		H := 5 + rng.Intn(2)
		bramCol := 1 + rng.Intn(W-2)
		dev := fabric.NewDevice("bf", W, H, func(x, y int) fabric.Kind {
			if x == bramCol {
				return fabric.BRAM
			}
			return fabric.CLB
		})
		r := dev.FullRegion()

		n := 2 + rng.Intn(2)
		mods := make([]*module.Module, n)
		for i := 0; i < n; i++ {
			var shapes []*module.Shape
			if rng.Intn(2) == 0 {
				// CLB-only module with two bar alternatives.
				L := 2 + rng.Intn(2)
				var h, v []module.Tile
				for k := 0; k < L; k++ {
					h = append(h, module.Tile{At: grid.Pt(k, 0), Kind: fabric.CLB})
					v = append(v, module.Tile{At: grid.Pt(0, k), Kind: fabric.CLB})
				}
				shapes = []*module.Shape{module.MustShape(h), module.MustShape(v)}
			} else {
				// BRAM+CLB pair, left and right variants.
				l := []module.Tile{
					{At: grid.Pt(0, 0), Kind: fabric.BRAM},
					{At: grid.Pt(1, 0), Kind: fabric.CLB},
				}
				rt := []module.Tile{
					{At: grid.Pt(0, 0), Kind: fabric.CLB},
					{At: grid.Pt(1, 0), Kind: fabric.BRAM},
				}
				shapes = []*module.Shape{module.MustShape(l), module.MustShape(rt)}
			}
			m, err := module.NewModule(string(rune('a'+i)), shapes...)
			if err != nil {
				t.Fatal(err)
			}
			mods[i] = m
		}

		res, err := New(r, Options{}).Place(mods)
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteForceShapes(r, mods)
		if res.Found != feasible {
			t.Fatalf("trial %d: found=%v brute=%v", trial, res.Found, feasible)
		}
		if res.Found {
			if err := res.Validate(r); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if res.Height != want {
				t.Fatalf("trial %d: CP height %d, brute force %d", trial, res.Height, want)
			}
		}
	}
}

// bruteForceShapes enumerates all (shape, anchor) combinations of all
// modules on a heterogeneous region.
func bruteForceShapes(r *fabric.Region, mods []*module.Module) (int, bool) {
	best := r.H() + 1
	occ := grid.NewBitmap(r.W(), r.H())
	var rec func(i, top int)
	rec = func(i, top int) {
		if top >= best {
			return
		}
		if i == len(mods) {
			best = top
			return
		}
		for si := 0; si < mods[i].NumShapes(); si++ {
			s := mods[i].Shape(si)
			va := ValidAnchors(r, s)
			for y := 0; y+s.H() <= r.H(); y++ {
				for x := 0; x+s.W() <= r.W(); x++ {
					if !va.Get(x, y) || occ.AnyAt(s.Points(), grid.Pt(x, y)) {
						continue
					}
					for _, p := range s.Points() {
						occ.Set(p.X+x, p.Y+y, true)
					}
					t2 := top
					if y+s.H() > t2 {
						t2 = y + s.H()
					}
					rec(i+1, t2)
					for _, p := range s.Points() {
						occ.Set(p.X+x, p.Y+y, false)
					}
				}
			}
		}
	}
	rec(0, 0)
	return best, best <= r.H()
}

// Property: on instances solved to proven optimality, adding design
// alternatives never increases the optimal height (the alternative set
// includes the original shape).
func TestPlaceAlternativesNeverWorseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		W := 6 + rng.Intn(3)
		H := 10 + rng.Intn(4)
		bramCol := 2 + rng.Intn(W-4)
		dev := fabric.NewDevice("prop", W, H, func(x, y int) fabric.Kind {
			if x == bramCol {
				return fabric.BRAM
			}
			return fabric.CLB
		})
		r := dev.FullRegion()
		n := 2 + rng.Intn(2)
		var mods []*module.Module
		ok := true
		for i := 0; i < n; i++ {
			d := module.Demand{CLB: 3 + rng.Intn(6)}
			if rng.Intn(3) == 0 {
				d.BRAM = 1
			}
			m, err := module.GenerateAlternatives(string(rune('a'+i)), d,
				module.AlternativeOptions{Count: 4})
			if err != nil {
				ok = false
				break
			}
			mods = append(mods, m)
		}
		if !ok {
			continue
		}
		p := New(r, Options{})
		with, err := p.Place(mods)
		if err != nil {
			continue // some alternative has no anchors on this tiny fabric
		}
		without, err := p.Place(workload.FirstShapesOnly(mods))
		if err != nil {
			continue
		}
		if !with.Optimal || !without.Optimal {
			t.Fatalf("trial %d: not proven optimal", trial)
		}
		if with.Found && without.Found && with.Height > without.Height {
			t.Fatalf("trial %d: alternatives worsened optimum %d > %d",
				trial, with.Height, without.Height)
		}
		if without.Found && !with.Found {
			t.Fatalf("trial %d: alternatives lost feasibility", trial)
		}
	}
}

package repro_test

// End-to-end integration tests across packages: the full Figure-2 design
// flow from textual specifications to validated placements, bitstreams,
// schedules, and online operation on the same fabric.

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/online"
	"repro/internal/recobus"
	"repro/internal/render"
	"repro/internal/rtsim"
	"repro/internal/workload"
)

const itRegionSpec = `
region it 36 24
bramcols 5 17 29
dspcols 16
clockrows 12
bus 0 12
`

const itModulesSpec = `
module alpha
demand 20 2 0
alternatives 4

module beta
demand 14 0 1
alternatives 4

module gamma
shape
rect 0 0 4 3 CLB
end
shape
rect 0 0 3 4 CLB
end
`

func TestIntegrationSpecToBitstreams(t *testing.T) {
	flow, err := recobus.LoadFlow(strings.NewReader(itRegionSpec), strings.NewReader(itModulesSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Place(core.Options{Timeout: 10 * time.Second, StallNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("flow found no placement")
	}
	// Rendering works on the result.
	plan := render.PlacementsWithRuler(flow.Region, res.Placements)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if !strings.Contains(plan, name) {
			t.Fatalf("rendered plan missing %s:\n%s", name, plan)
		}
	}
	// Bitstream assembly and round trip.
	bs, err := flow.Assemble(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("bitstreams = %d", len(bs))
	}
	for _, b := range bs {
		back, err := recobus.DecodeBitstream(b.Encode())
		if err != nil || back.Module != b.Module || back.Frames != b.Frames {
			t.Fatalf("bitstream round trip: %v / %v", err, back)
		}
	}
}

func TestIntegrationScheduleOnFlow(t *testing.T) {
	flow, err := recobus.LoadFlow(strings.NewReader(itRegionSpec), strings.NewReader(itModulesSpec))
	if err != nil {
		t.Fatal(err)
	}
	sched := `
phase boot 10ms
use alpha gamma
phase run 30ms
use alpha beta
`
	phases, err := rtsim.ParseSchedule(strings.NewReader(sched), rtsim.Library(flow.Modules))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := rtsim.Plan(flow.Region, phases, rtsim.Options{
		Placer:     core.Options{Timeout: 10 * time.Second, StallNodes: 1000, BusRows: flow.Spec.BusRows},
		Persistent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Plans) != 2 {
		t.Fatalf("plans = %d", len(tl.Plans))
	}
	// alpha survives the switch: it must be kept, not reconfigured.
	kept := tl.Plans[1].Kept
	if len(kept) != 1 || kept[0] != "alpha" {
		t.Fatalf("kept = %v", kept)
	}
	// Every phase placement is valid and respects the bus rows.
	for _, p := range tl.Plans {
		if err := p.Result.Validate(flow.Region); err != nil {
			t.Fatalf("phase %s: %v", p.Phase.Name, err)
		}
		for _, pl := range p.Result.Placements {
			b := pl.Bounds()
			onBus := false
			for _, row := range flow.Spec.BusRows {
				if b.MinY <= row && row < b.MaxY {
					onBus = true
				}
			}
			if !onBus {
				t.Fatalf("phase %s: %v off the bus", p.Phase.Name, pl)
			}
		}
	}
}

func TestIntegrationOnlineThenCompaction(t *testing.T) {
	dev, err := fabric.ByName("virtex2-like-48x32")
	if err != nil {
		t.Fatal(err)
	}
	region := dev.FullRegion()
	stream := online.StreamConfig{Tasks: 40, MeanInterarrival: 3, MeanDuration: 500}
	stream.Library.CLBMin, stream.Library.CLBMax = 6, 20
	stream.Library.NoBRAM = true
	stream.Library.Alternatives = 2
	stream.Library.NumModules = 1
	tasks, err := online.GenerateStream(stream, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	mgr := &online.FirstFit{UseAlternatives: true}
	if _, err := online.Simulate(region, mgr, tasks, fabric.DefaultFrameModel()); err != nil {
		t.Fatal(err)
	}

	// Rebuild a residency snapshot from a fresh fragmented sequence and
	// plan compaction over it.
	var residents []online.Resident
	occupied := 0
	for i, task := range tasks[:12] {
		if i%3 == 0 {
			continue // leave gaps
		}
		residents = append(residents, online.Resident{
			ID: task.ID, Module: task.Module, Shape: 0,
			At: placeForTest(t, region, residents, task.Module),
		})
		occupied++
	}
	if occupied < 4 {
		t.Fatal("test premise: too few residents")
	}
	moves, target, err := online.PlanCompaction(region, residents,
		core.Options{Timeout: 10 * time.Second, StallNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if target == nil {
		t.Fatal("no compaction target")
	}
	if _, err := online.ApplyMoves(region, residents, moves); err != nil {
		t.Fatal(err)
	}
}

// placeForTest finds a bottom-left anchor for m's first shape above the
// other residents, spreading modules upward to create fragmentation.
func placeForTest(t *testing.T, region *fabric.Region, residents []online.Resident, m *module.Module) grid.Point {
	t.Helper()
	s := m.Shape(0)
	va := core.ValidAnchors(region, s)
	minY := 2 * len(residents) // force vertical spread
	for y := minY; y+s.H() <= region.H(); y++ {
		for x := 0; x+s.W() <= region.W(); x++ {
			if !va.Get(x, y) {
				continue
			}
			clash := false
			for _, r := range residents {
				rs := r.Module.Shape(r.Shape)
				if overlapRects(x, y, s.W(), s.H(), r.At.X, r.At.Y, rs.W(), rs.H()) {
					clash = true
					break
				}
			}
			if !clash {
				return grid.Pt(x, y)
			}
		}
	}
	t.Fatal("no anchor for test resident")
	return grid.Point{}
}

func overlapRects(ax, ay, aw, ah, bx, by, bw, bh int) bool {
	return ax < bx+bw && bx < ax+aw && ay < by+bh && by < ay+ah
}

func TestIntegrationTableIWorkloadValidity(t *testing.T) {
	// One reduced Table-I style run, validating every intermediate.
	region := fabric.Homogeneous(40, 30).FullRegion()
	mods := workload.MustGenerate(workload.Config{
		NumModules: 6, CLBMin: 10, CLBMax: 30, NoBRAM: true, Alternatives: 4,
	}, rand.New(rand.NewSource(2)))
	p := core.New(region, core.Options{Timeout: 10 * time.Second, StallNodes: 500})
	with, err := p.Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	without, err := p.Place(workload.FirstShapesOnly(mods))
	if err != nil {
		t.Fatal(err)
	}
	if !with.Found || !without.Found {
		t.Fatal("placements not found")
	}
	if with.Height > without.Height {
		t.Fatalf("alternatives worsened height: %d > %d", with.Height, without.Height)
	}
	if err := with.Validate(region); err != nil {
		t.Fatal(err)
	}
	if err := without.Validate(region); err != nil {
		t.Fatal(err)
	}
}

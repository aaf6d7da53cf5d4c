package rtsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

func clbModule(name string, w, h int) *module.Module {
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

func region() *fabric.Region { return fabric.Homogeneous(12, 10).FullRegion() }

func twoPhases() []Phase {
	shared := clbModule("shared", 4, 3)
	return []Phase{
		{
			Name:    "A",
			Modules: []*module.Module{shared, clbModule("a1", 3, 3), clbModule("a2", 2, 2)},
			Dwell:   100 * time.Millisecond,
		},
		{
			Name:    "B",
			Modules: []*module.Module{shared, clbModule("b1", 5, 2)},
			Dwell:   50 * time.Millisecond,
		},
	}
}

func TestPlanFreshBasics(t *testing.T) {
	tl, err := Plan(region(), twoPhases(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Plans) != 2 {
		t.Fatalf("plans = %d", len(tl.Plans))
	}
	// First phase: everything enters.
	if len(tl.Plans[0].Entering) != 3 || len(tl.Plans[0].Kept) != 0 {
		t.Fatalf("phase A enter/keep = %d/%d", len(tl.Plans[0].Entering), len(tl.Plans[0].Kept))
	}
	for _, p := range tl.Plans {
		if err := p.Result.Validate(region()); err != nil {
			t.Fatalf("phase %s: %v", p.Phase.Name, err)
		}
		if p.SwitchTime <= 0 {
			t.Fatalf("phase %s: zero switch time with entering modules", p.Phase.Name)
		}
	}
	if tl.TotalDwell != 150*time.Millisecond {
		t.Fatalf("dwell = %v", tl.TotalDwell)
	}
	if tl.Overhead() <= 0 || tl.Overhead() >= 1 {
		t.Fatalf("overhead = %v", tl.Overhead())
	}
	if !strings.Contains(tl.String(), "2 phases") {
		t.Fatalf("String = %q", tl.String())
	}
}

func TestPlanPersistentKeepsSurvivors(t *testing.T) {
	tl, err := Plan(region(), twoPhases(), Options{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	b := tl.Plans[1]
	if len(b.Kept) != 1 || b.Kept[0] != "shared" {
		t.Fatalf("phase B kept = %v", b.Kept)
	}
	if len(b.Entering) != 1 || b.Entering[0] != "b1" {
		t.Fatalf("phase B entering = %v", b.Entering)
	}
	// The survivor keeps its exact placement.
	find := func(ps *PhasePlan, name string) (int, bool) {
		for i, p := range ps.Result.Placements {
			if p.Module.Name() == name {
				return i, true
			}
		}
		return 0, false
	}
	ia, oka := find(&tl.Plans[0], "shared")
	ib, okb := find(&tl.Plans[1], "shared")
	if !oka || !okb {
		t.Fatal("shared module missing from a phase")
	}
	pa := tl.Plans[0].Result.Placements[ia]
	pb := tl.Plans[1].Result.Placements[ib]
	if pa.At != pb.At || pa.ShapeIndex != pb.ShapeIndex {
		t.Fatalf("survivor moved: %v -> %v", pa, pb)
	}
	// The combined phase-B placement is valid on the original region.
	if err := b.Result.Validate(region()); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentCheaperSwitchThanFresh(t *testing.T) {
	// Fresh planning may move the shared module (it re-optimises); the
	// persistent plan never pays for survivors, so its phase-B switch
	// cost is at most fresh's.
	fresh, err := Plan(region(), twoPhases(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := Plan(region(), twoPhases(), Options{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if persistent.Plans[1].SwitchTime > fresh.Plans[1].SwitchTime {
		t.Fatalf("persistent switch %v > fresh %v",
			persistent.Plans[1].SwitchTime, fresh.Plans[1].SwitchTime)
	}
}

func TestPlanRepeatedPhaseNoSwitch(t *testing.T) {
	shared := clbModule("m", 3, 3)
	phases := []Phase{
		{Name: "p1", Modules: []*module.Module{shared}, Dwell: time.Millisecond},
		{Name: "p2", Modules: []*module.Module{shared}, Dwell: time.Millisecond},
	}
	tl, err := Plan(region(), phases, Options{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Plans[1].SwitchTime != 0 || len(tl.Plans[1].Entering) != 0 {
		t.Fatalf("identical phase still reconfigures: %+v", tl.Plans[1])
	}
}

func TestPlanErrors(t *testing.T) {
	r := region()
	if _, err := Plan(r, nil, Options{}); err == nil {
		t.Error("empty schedule accepted")
	}
	bad := []Phase{{Name: "", Modules: []*module.Module{clbModule("m", 1, 1)}}}
	if _, err := Plan(r, bad, Options{}); err == nil {
		t.Error("unnamed phase accepted")
	}
	dup := []Phase{{Name: "p", Modules: []*module.Module{clbModule("m", 1, 1), clbModule("m", 2, 2)}}}
	if _, err := Plan(r, dup, Options{}); err == nil {
		t.Error("duplicate module accepted")
	}
	noMods := []Phase{{Name: "p"}}
	if _, err := Plan(r, noMods, Options{}); err == nil {
		t.Error("empty phase accepted")
	}
	negDwell := []Phase{{Name: "p", Modules: []*module.Module{clbModule("m", 1, 1)}, Dwell: -1}}
	if _, err := Plan(r, negDwell, Options{}); err == nil {
		t.Error("negative dwell accepted")
	}
	big := []Phase{{Name: "p", Modules: []*module.Module{clbModule("m", 20, 20)}}}
	if _, err := Plan(r, big, Options{}); err == nil {
		t.Error("oversized module accepted")
	}
}

func TestPlanPersistentInfeasibleEntering(t *testing.T) {
	// Phase A fills the region; phase B keeps it and adds more than fits.
	phases := []Phase{
		{Name: "A", Modules: []*module.Module{clbModule("big", 12, 9)}, Dwell: time.Millisecond},
		{Name: "B", Modules: []*module.Module{clbModule("big", 12, 9), clbModule("more", 6, 6)}, Dwell: time.Millisecond},
	}
	if _, err := Plan(region(), phases, Options{Persistent: true}); err == nil {
		t.Fatal("overfull persistent phase accepted")
	}
}

func TestOverheadZeroCases(t *testing.T) {
	var tl Timeline
	if tl.Overhead() != 0 {
		t.Fatal("empty timeline overhead not 0")
	}
}

func TestParseSchedule(t *testing.T) {
	lib := Library([]*module.Module{
		clbModule("a", 2, 2), clbModule("b", 3, 2), clbModule("c", 2, 3),
	})
	text := `
# two phases
phase boot 10ms
use a b
phase run 40ms
use a c
`
	phases, err := ParseSchedule(strings.NewReader(text), lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	if phases[0].Name != "boot" || phases[0].Dwell != 10*time.Millisecond || len(phases[0].Modules) != 2 {
		t.Fatalf("phase 0: %+v", phases[0])
	}
	if phases[1].Modules[1].Name() != "c" {
		t.Fatal("module resolution wrong")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	lib := Library([]*module.Module{clbModule("a", 1, 1)})
	cases := map[string]string{
		"empty":          "",
		"use outside":    "use a\n",
		"bad dwell":      "phase p xx\nuse a\n",
		"unknown module": "phase p 1ms\nuse ghost\n",
		"empty use":      "phase p 1ms\nuse\n",
		"unknown":        "phase p 1ms\nwibble\n",
		"no modules":     "phase p 1ms\n",
		"bad header":     "phase p\n",
	}
	for name, text := range cases {
		if _, err := ParseSchedule(strings.NewReader(text), lib); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLibrary(t *testing.T) {
	mods := []*module.Module{clbModule("x", 1, 1), clbModule("y", 2, 1)}
	lib := Library(mods)
	if len(lib) != 2 || lib["x"] != mods[0] || lib["y"] != mods[1] {
		t.Fatalf("library: %v", lib)
	}
}

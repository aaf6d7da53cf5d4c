package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// The differential property behind the presolve layer: every presolve
// technique (dominance elimination, symmetry breaking, bound
// strengthening, warm start) is optimality-preserving, so an
// exhaustive solve with presolve on must prove the same optimal height
// as one with presolve off — on every instance, under every solver
// configuration. The suite sweeps several hundred seeded generated
// instances across fabric layouts (homogeneous, BRAM columns, bus
// rows) and solver knobs (strong propagation, parallel workers) and
// asserts exactly that, plus geometric validity of both placements.
//
// Only exhaustive runs (no timeout, no stall criterion) carry the
// guarantee: an anytime stop freezes whatever incumbent each search
// happened to reach, and presolve legitimately changes the trajectory.
// Instances are kept small so several hundred optimality proofs stay
// fast enough for `go test ./...` under -race in CI.

// diffArm is one fabric/options cell of the differential sweep; each
// cell runs `runs` seeded instances.
type diffArm struct {
	name string
	spec fabric.Spec
	cfg  workload.Config
	opts core.Options
	runs int
}

func diffArms() []diffArm {
	exhaustive := core.Options{}
	strong := exhaustive
	strong.StrongPropagation = true
	parallel := exhaustive
	parallel.Workers = 2
	bus := exhaustive
	bus.BusRows = []int{2, 6}
	return []diffArm{
		{
			name: "homogeneous",
			spec: fabric.Spec{Name: "d1", W: 10, H: 8},
			cfg:  workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 8, NoBRAM: true, Alternatives: 2},
			opts: exhaustive, runs: 60,
		},
		{
			name: "identical-modules", // symmetry groups fire here
			spec: fabric.Spec{Name: "d2", W: 9, H: 8},
			cfg:  workload.Config{NumModules: 4, CLBMin: 4, CLBMax: 4, NoBRAM: true, Alternatives: 2},
			opts: exhaustive, runs: 40,
		},
		{
			name: "bram-column",
			spec: fabric.Spec{Name: "d3", W: 12, H: 8, BRAMColumns: []int{5}},
			cfg:  workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 7, BRAMMin: 0, BRAMMax: 1, Alternatives: 3},
			opts: exhaustive, runs: 40,
		},
		{
			name: "bus-rows",
			spec: fabric.Spec{Name: "d4", W: 10, H: 8},
			cfg:  workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 6, NoBRAM: true, Alternatives: 2},
			opts: bus, runs: 30,
		},
		{
			name: "strong-propagation",
			spec: fabric.Spec{Name: "d5", W: 10, H: 8},
			cfg:  workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 8, NoBRAM: true, Alternatives: 2},
			opts: strong, runs: 30,
		},
		{
			name: "parallel",
			spec: fabric.Spec{Name: "d6", W: 10, H: 8},
			cfg:  workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 8, NoBRAM: true, Alternatives: 2},
			opts: parallel, runs: 30,
		},
		{
			name: "wide-rows", // the pigeonhole bound fires here
			spec: fabric.Spec{Name: "d7", W: 6, H: 10},
			cfg:  workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 8, NoBRAM: true, Alternatives: 2},
			opts: exhaustive, runs: 30,
		},
	}
}

// TestPresolveDifferential: ≥200 seeded instances, presolve on vs off,
// identical optimal objective and valid placements on both sides.
func TestPresolveDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of exhaustive solves; skipped with -short")
	}
	total := 0
	for _, arm := range diffArms() {
		total += arm.runs
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			region := arm.spec.MustBuild().FullRegion()
			for run := 0; run < arm.runs; run++ {
				seed := int64(1000 + run)
				mods, err := workload.Generate(arm.cfg, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}

				on := arm.opts
				on.Presolve = core.PresolveOn
				off := arm.opts
				off.Presolve = core.PresolveOff

				resOn, errOn := core.New(region, on).Place(mods)
				resOff, errOff := core.New(region, off).Place(mods)
				if (errOn == nil) != (errOff == nil) {
					t.Fatalf("seed %d: error mismatch: on=%v off=%v", seed, errOn, errOff)
				}
				if errOn != nil {
					continue // both rejected the instance the same way
				}
				if resOn.Found != resOff.Found {
					t.Fatalf("seed %d: feasibility mismatch: on=%v off=%v",
						seed, resOn.Found, resOff.Found)
				}
				if !resOn.Found {
					continue
				}
				if !resOn.Optimal || !resOff.Optimal {
					t.Fatalf("seed %d: exhaustive run not proven optimal: on=%v off=%v",
						seed, resOn.Optimal, resOff.Optimal)
				}
				if resOn.Height != resOff.Height {
					t.Fatalf("seed %d: optimal height diverged: presolve-on=%d presolve-off=%d",
						seed, resOn.Height, resOff.Height)
				}
				if err := resOn.Validate(region); err != nil {
					t.Fatalf("seed %d: presolve-on placement invalid: %v", seed, err)
				}
				if err := resOff.Validate(region); err != nil {
					t.Fatalf("seed %d: presolve-off placement invalid: %v", seed, err)
				}
			}
		})
	}
	if total < 200 {
		t.Fatalf("differential sweep covers %d instances, want >= 200", total)
	}
}

// TestPresolveStatsReported pins the plumbing: a presolve-on solve
// reports PresolveStats (with a warm-start height and, on an instance
// of interchangeable modules, a posted lex chain), a presolve-off
// solve reports none.
func TestPresolveStatsReported(t *testing.T) {
	region := fabric.Homogeneous(8, 6).FullRegion()
	square := func(name string) *module.Module {
		var tiles []module.Tile
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				tiles = append(tiles, module.Tile{At: grid.Pt(x, y), Kind: fabric.CLB})
			}
		}
		m, err := module.NewModule(name, module.MustShape(tiles))
		if err != nil {
			panic(err)
		}
		return m
	}
	mods := []*module.Module{square("a"), square("b"), square("c")}

	on, err := core.New(region, core.Options{}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if on.PresolveStats == nil {
		t.Fatal("presolve-on result carries no PresolveStats")
	}
	if on.PresolveStats.LexConstraints != 2 {
		t.Fatalf("three interchangeable modules should chain 2 lex constraints, got %d",
			on.PresolveStats.LexConstraints)
	}
	if on.PresolveStats.WarmHeight < on.Height {
		t.Fatalf("warm height %d below the proven optimum %d",
			on.PresolveStats.WarmHeight, on.Height)
	}

	off, err := core.New(region, core.Options{Presolve: core.PresolveOff}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if off.PresolveStats != nil {
		t.Fatalf("presolve-off result carries PresolveStats %+v", off.PresolveStats)
	}
	if on.Height != off.Height || !on.Optimal || !off.Optimal {
		t.Fatalf("objectives diverged: on=%d (optimal=%v) off=%d (optimal=%v)",
			on.Height, on.Optimal, off.Height, off.Optimal)
	}
}

package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current solver output")

// goldenPlacement is the pinned form of one solve: the objective and
// the full placement, but not wall-clock or node-count fields, which
// may drift with harmless search-engine changes.
type goldenPlacement struct {
	Found       bool           `json:"found"`
	Height      int            `json:"height"`
	Utilization float64        `json:"utilization"`
	Optimal     bool           `json:"optimal"`
	Stalled     bool           `json:"stalled"`
	Reason      string         `json:"reason"`
	Placements  []goldenModule `json:"placements"`
}

type goldenModule struct {
	Module string `json:"module"`
	Shape  int    `json:"shape"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	W      int    `json:"w"`
	H      int    `json:"h"`
}

// TestGoldenTableIPlacement pins the end-to-end result of the paper's
// flagship instance: the seed-1 batch of 30 generated modules with
// design alternatives on the Table-I region, solved sequentially with
// the node-based stall criterion and no wall-clock cutoff — a fully
// deterministic configuration. Any solver change that moves this
// placement shows up as a golden diff; regenerate deliberately with
//
//	go test ./internal/core -run TestGolden -update
func TestGoldenTableIPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exhaustive solve; skipped with -short")
	}
	// Timeout must stay zero: a wall-clock stop makes the search
	// nondeterministic, a node-based stall stop does not.
	checkGolden(t, core.Options{StallNodes: 800}, "table1-seed1.golden.json")
}

// TestGoldenFirstSolutionPlacement pins the first solution of the same
// instance: one dive in bottom-left value order, which places each
// module at its lowest, then leftmost free anchor and breaks ties
// between the modules' shape alternatives by shape id. The dive is the
// solve every blocked session arrival runs, so a change to that order
// shows up here.
func TestGoldenFirstSolutionPlacement(t *testing.T) {
	checkGolden(t, core.Options{FirstSolutionOnly: true}, "table1-seed1-first.golden.json")
}

// checkGolden solves the Table-I seed-1 instance with opts and compares
// the result with the golden file testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, opts core.Options, name string) {
	region := experiments.TableIRegion()
	mods := workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1)))
	res, err := core.New(region, opts).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(region); err != nil {
		t.Fatal(err)
	}

	got := goldenPlacement{
		Found:       res.Found,
		Height:      res.Height,
		Utilization: res.Utilization,
		Optimal:     res.Optimal,
		Stalled:     res.Stalled,
		Reason:      res.Reason.String(),
	}
	for _, p := range res.Placements {
		s := p.Shape()
		got.Placements = append(got.Placements, goldenModule{
			Module: p.Module.Name(),
			Shape:  p.ShapeIndex,
			X:      p.At.X,
			Y:      p.At.Y,
			W:      s.W(),
			H:      s.H(),
		})
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	goldenPath := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (height %d, util %.4f)", goldenPath, got.Height, got.Utilization)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("Table-I seed-1 placement diverged from golden file %s.\n"+
			"If the solver change is intentional, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, data, want)
	}
}

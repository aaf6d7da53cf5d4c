// The solver benchmark-regression gate. Wall-clock benchmarks are too
// noisy to gate a CI job on directly, so the gate pins the solver's
// *deterministic* effort metrics — search nodes and backtracks of a
// sequential solve, which are bit-reproducible for a fixed instance and
// configuration — exactly via a committed baseline (BENCH_solver.json)
// with a small slack. It pins the solve's heap allocation count
// (runtime.MemStats.Mallocs) with a tight slack, since a sequential
// solve allocates nearly the same number of objects every run, and uses
// wall time only as a coarse sanity bound.
//
//	go test -run TestBenchGate -benchgate .            # gate against the baseline
//	go test -run TestBenchGate -benchgate-update .     # re-baseline after an intended change
//
// CI runs the gate via scripts/benchgate.sh (`make benchgate`). A
// failure means the change regressed solver pruning: either fix it, or
// re-baseline with -benchgate-update and justify the new numbers in the
// change description.
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/workload"
)

var (
	benchgateRun    = flag.Bool("benchgate", false, "run the solver benchmark-regression gate against BENCH_solver.json")
	benchgateUpdate = flag.Bool("benchgate-update", false, "rewrite BENCH_solver.json from the current build")
)

const benchGatePath = "BENCH_solver.json"

const (
	// gateEffortSlack bounds nodes and backtracks relative to the
	// baseline. The metrics are deterministic, so any slack at all is
	// generosity toward incidental changes (e.g. a reordered propagator
	// queue); real pruning regressions blow well past 10%.
	gateEffortSlack = 1.10
	// gateAllocSlack bounds heap allocations. A sequential solve's
	// allocation count varies by well under 0.1% between runs, so 2%
	// catches an allocation added to a per-node or per-propagation path
	// without tripping on noise.
	gateAllocSlack = 1.02
	// gateTimeSlack bounds wall time. CI machines vary widely, so this
	// only catches catastrophic slowdowns (an accidental O(n²) in a hot
	// path), not percentage-level drift — that is what nodes are for.
	gateTimeSlack = 5.0
)

// gateRecord is one scenario's pinned numbers in BENCH_solver.json.
type gateRecord struct {
	Name       string `json:"name"`
	Height     int    `json:"height"`
	Optimal    bool   `json:"optimal"`
	Nodes      int64  `json:"nodes"`
	Backtracks int64  `json:"backtracks"`
	Allocs     uint64 `json:"allocs"`
	NS         int64  `json:"ns"`
}

type gateFile struct {
	Comment   string       `json:"comment"`
	Scenarios []gateRecord `json:"scenarios"`
}

type gateScenario struct {
	name   string
	region *fabric.Region
	mods   []*module.Module
	opts   core.Options
}

// gateScenarios builds the pinned scenario set. All solves are
// sequential (Workers 0) with no wall-clock timeout, so nodes and
// backtracks depend only on the instance and the options — the
// convergence criterion is the experiments' StallNodes. The first
// scenarios are the table1-cold corpus of the repository benchmark
// (see table1ColdCorpus), the instances its end-to-end numbers come
// from; the rest cover the presolve-off arm, the single-dive replan
// path, the figure workloads and compulsory-part pruning.
func gateScenarios() []gateScenario {
	table1 := experiments.TableIRegion()
	t1mods := workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1)))

	fig3 := fabric.Spec{Name: "fig3", W: 24, H: 12, BRAMColumns: []int{4, 16}}
	fig3Mods := workload.MustGenerate(workload.Config{
		NumModules: 6, CLBMin: 6, CLBMax: 14, BRAMMax: 2, Alternatives: 2,
	}, rand.New(rand.NewSource(1)))

	fig5 := fabric.Spec{Name: "fig5", W: 36, H: 24, BRAMColumns: []int{5, 17, 29}, DSPColumns: []int{16}}
	fig5Mods := workload.MustGenerate(workload.Config{
		NumModules: 12, CLBMin: 8, CLBMax: 24, BRAMMax: 3, Alternatives: 4,
	}, rand.New(rand.NewSource(5)))

	// The compulsory-part path: 15 Table-I modules under
	// StrongPropagation, stopped by a node stall rather than a wall
	// clock so its effort counts are deterministic.
	t1mods15 := workload.MustGenerate(workload.Config{NumModules: 15}, rand.New(rand.NewSource(1)))
	strong := core.Options{StallNodes: 200, StrongPropagation: true}

	on := core.Options{StallNodes: 800}
	off := on
	off.Presolve = core.PresolveOff

	var out []gateScenario
	for _, c := range table1ColdCorpus() {
		out = append(out, gateScenario{"table1-cold/" + c.label, table1, c.mods, on})
	}
	return append(out,
		gateScenario{"table1-alternatives-presolve-off", table1, t1mods, off},
		// One bottom-left dive with no presolve, the solve every blocked
		// session arrival runs: its first solution is the value order's.
		gateScenario{"table1-first-solution", table1, t1mods, core.Options{FirstSolutionOnly: true}},
		gateScenario{"fig3-alternatives", fig3.MustBuild().FullRegion(), fig3Mods, on},
		gateScenario{"fig5-alternatives", fig5.MustBuild().FullRegion(), fig5Mods, on},
		gateScenario{"table1-15-strong-propagation", table1, t1mods15, strong},
	)
}

// table1ColdInstance is one instance of the table1-cold corpus.
type table1ColdInstance struct {
	label string // "<generator seed>/<arm>"
	mods  []*module.Module
}

// table1ColdCorpus returns the repository benchmark's table1-cold
// corpus: Table-I generator seeds 1-10, 30 modules, with and without
// design alternatives. It is solved at stall 800 with presolve on.
func table1ColdCorpus() []table1ColdInstance {
	var out []table1ColdInstance
	for seed := 1; seed <= 10; seed++ {
		mods := workload.MustGenerate(workload.Config{NumModules: 30}, rand.New(rand.NewSource(int64(seed))))
		out = append(out,
			table1ColdInstance{fmt.Sprintf("%d/alternatives", seed), mods},
			table1ColdInstance{fmt.Sprintf("%d/single", seed), workload.FirstShapesOnly(mods)})
	}
	return out
}

// readGateFile reads the committed baseline.
func readGateFile() (gateFile, error) {
	var base gateFile
	data, err := os.ReadFile(benchGatePath)
	if err != nil {
		return base, fmt.Errorf("missing baseline (re-create with -benchgate-update): %w", err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s: %w", benchGatePath, err)
	}
	return base, nil
}

func runGateScenario(t *testing.T, sc gateScenario) gateRecord {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.New(sc.region, sc.opts).Place(sc.mods)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	if !res.Found {
		t.Fatalf("%s: no placement found", sc.name)
	}
	if verr := res.Validate(sc.region); verr != nil {
		t.Fatalf("%s: invalid placement: %v", sc.name, verr)
	}
	return gateRecord{
		Name:       sc.name,
		Height:     res.Height,
		Optimal:    res.Optimal,
		Nodes:      res.Nodes,
		Backtracks: res.Backtracks,
		Allocs:     after.Mallocs - before.Mallocs,
		NS:         elapsed.Nanoseconds(),
	}
}

// TestBenchGate is skipped by default (a full run is a few dozen
// seconds of solving) and armed with -benchgate / -benchgate-update.
func TestBenchGate(t *testing.T) {
	if !*benchgateRun && !*benchgateUpdate {
		t.Skip("benchmark-regression gate; run with -benchgate (or -benchgate-update to re-baseline)")
	}

	var got []gateRecord
	for _, sc := range gateScenarios() {
		rec := runGateScenario(t, sc)
		t.Logf("%s: height=%d optimal=%v nodes=%d backtracks=%d allocs=%d elapsed=%v",
			rec.Name, rec.Height, rec.Optimal, rec.Nodes, rec.Backtracks, rec.Allocs, time.Duration(rec.NS))
		got = append(got, rec)
	}

	if *benchgateUpdate {
		out := gateFile{
			Comment:   "Solver effort baseline for scripts/benchgate.sh. Regenerate with: go test -run TestBenchGate -benchgate-update .",
			Scenarios: got,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchGatePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", benchGatePath)
		return
	}

	base, err := readGateFile()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]gateRecord, len(base.Scenarios))
	for _, rec := range base.Scenarios {
		want[rec.Name] = rec
	}

	var failures []string
	for _, rec := range got {
		b, ok := want[rec.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no baseline entry (re-run -benchgate-update)", rec.Name))
			continue
		}
		if rec.Height != b.Height {
			failures = append(failures, fmt.Sprintf("%s: height %d, baseline %d", rec.Name, rec.Height, b.Height))
		}
		if rec.Optimal != b.Optimal {
			failures = append(failures, fmt.Sprintf("%s: optimal=%v, baseline %v", rec.Name, rec.Optimal, b.Optimal))
		}
		if maxN := int64(float64(b.Nodes) * gateEffortSlack); rec.Nodes > maxN {
			failures = append(failures, fmt.Sprintf("%s: nodes %d exceeds baseline %d x%.2f = %d",
				rec.Name, rec.Nodes, b.Nodes, gateEffortSlack, maxN))
		}
		if maxB := int64(float64(b.Backtracks) * gateEffortSlack); rec.Backtracks > maxB {
			failures = append(failures, fmt.Sprintf("%s: backtracks %d exceeds baseline %d x%.2f = %d",
				rec.Name, rec.Backtracks, b.Backtracks, gateEffortSlack, maxB))
		}
		if maxA := uint64(float64(b.Allocs) * gateAllocSlack); rec.Allocs > maxA {
			failures = append(failures, fmt.Sprintf("%s: allocs %d exceeds baseline %d x%.2f = %d",
				rec.Name, rec.Allocs, b.Allocs, gateAllocSlack, maxA))
		}
		if maxT := int64(float64(b.NS) * gateTimeSlack); rec.NS > maxT {
			failures = append(failures, fmt.Sprintf("%s: wall time %v exceeds baseline %v x%.0f",
				rec.Name, time.Duration(rec.NS), time.Duration(b.NS), gateTimeSlack))
		}
	}
	for name := range want {
		found := false
		for _, rec := range got {
			if rec.Name == name {
				found = true
				break
			}
		}
		if !found {
			failures = append(failures, fmt.Sprintf("%s: baseline entry has no scenario (stale %s?)", name, benchGatePath))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			t.Error(f)
		}
		t.Fatalf("solver effort regressed against %s; if intended, re-baseline with -benchgate-update", benchGatePath)
	}
}

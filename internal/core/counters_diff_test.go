package core_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/workload"
)

// exported parses the solver_* samples of reg's Prometheus text.
func exported(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "solver_") {
			out[name] = val
		}
	}
	return out
}

// effortNames are the effort counters Place exports beyond the ones the
// Result carries: branches, prunes, pruned values, solutions and the
// maximum search depth.
var effortNames = []string{"solver_branches_total", "solver_prunes_total", "solver_pruned_values_total", "solver_solutions_total", "solver_max_depth"}

// effortOf reads the effortNames samples of an export.
func effortOf(t *testing.T, got map[string]string) [5]int64 {
	t.Helper()
	var e [5]int64
	for i, name := range effortNames {
		v, err := strconv.ParseInt(got[name], 10, 64)
		if err != nil {
			t.Fatalf("%s = %q: %v", name, got[name], err)
		}
		e[i] = v
	}
	return e
}

// TestExportMatchesReplay checks what Place exports to Options.Metrics
// against the solve it came from, in every configuration: Table-I
// workloads of several sizes and seeds, sequential and parallel search,
// presolve on and off, optimising and first-solution runs. The
// backtracks, propagations, incumbents and best objective must replay
// the Result's; the per-propagator runs must add up to the
// propagations; and the effort counters must be mutually consistent:
// no more backtracks than branches, at least one value per prune, one
// solution exactly when a first-solution run found one, one solution
// leaf per incumbent of a sequential optimising run and at least that
// many on parallel workers (a worker may reach a leaf another worker's
// incumbent has beaten), and a maximum depth within the search
// variables (the modules and the height).
func TestExportMatchesReplay(t *testing.T) {
	region := experiments.TableIRegion()
	for _, n := range []int{6, 12, 30} {
		seeds := int64(4)
		if n == 30 {
			seeds = 1 // the 30-module optimising runs dominate the test's time
		}
		for seed := int64(1); seed <= seeds; seed++ {
			mods, err := workload.Generate(workload.Config{NumModules: n}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				for _, presolve := range []core.PresolveMode{core.PresolveOn, core.PresolveOff} {
					for _, first := range []bool{false, true} {
						name := fmt.Sprintf("n%d/seed%d/w%d/presolve-%v/first-%v", n, seed, workers, presolve, first)
						opts := core.Options{StallNodes: 100, Workers: workers, Presolve: presolve, FirstSolutionOnly: first}
						t.Run(name, func(t *testing.T) { compareExport(t, region, mods, opts) })
					}
				}
			}
		}
	}
}

// compareExport solves mods once with the export attached and checks
// it against the Result.
func compareExport(t *testing.T, region *fabric.Region, mods []*module.Module, opts core.Options) {
	export := obs.NewRegistry()
	opts.Metrics = export
	res, err := core.New(region, opts).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	got := exported(t, export)
	want := map[string]string{
		"solver_backtracks_total":   strconv.FormatInt(res.Backtracks, 10),
		"solver_propagations_total": strconv.FormatInt(res.Propagations, 10),
		"solver_incumbents_total":   strconv.Itoa(len(res.ObjectiveTrace)),
	}
	if n := len(res.ObjectiveTrace); n > 0 {
		want["solver_best_objective"] = strconv.Itoa(res.ObjectiveTrace[n-1].Objective)
	}
	runs := int64(0)
	for name, val := range got {
		if strings.HasPrefix(name, "solver_propagator_runs_total{") {
			v, _ := strconv.ParseInt(val, 10, 64)
			runs += v
		} else if w, ok := want[name]; ok && val != w {
			t.Errorf("%s = %s, Result says %s", name, val, w)
		}
	}
	for name := range want {
		if got[name] == "" {
			t.Errorf("%s not exported", name)
		}
	}
	if got[`solver_propagator_runs_total{propagator="geost.non-overlap"}`] == "" {
		t.Fatalf("no non-overlap runs exported: %v", got)
	}
	if runs != res.Propagations {
		t.Errorf("per-propagator runs add up to %d, propagations %d", runs, res.Propagations)
	}
	e := effortOf(t, got)
	branches, prunes, pruned, solutions, depth := e[0], e[1], e[2], e[3], e[4]
	wantSolutions := int64(len(res.ObjectiveTrace))
	if opts.FirstSolutionOnly && res.Found {
		wantSolutions = 1
	}
	exact := opts.FirstSolutionOnly || opts.Workers <= 1
	if branches < res.Backtracks || pruned < prunes || solutions < wantSolutions || exact && solutions != wantSolutions || depth > int64(len(mods)) {
		t.Errorf("inconsistent effort: branches %d, backtracks %d, prunes %d, pruned values %d, solutions %d (want %d), max depth %d for %d modules",
			branches, res.Backtracks, prunes, pruned, solutions, wantSolutions, depth, len(mods))
	}
}

// pinnedEffort holds the effortNames values of sequential Table-I
// solves (StallNodes 100), by workload and options. They are the values
// the solver's former event-stream aggregator counted on the same
// solves; the search's own counters were checked equal to them on every
// case, sequential and on two workers, before the event stream was
// removed. The one exception is solver_solutions_total of optimising
// runs: the aggregator counted only Solve's leaves, so it read 0 there,
// and the search now counts Minimize's solution leaves too, one per
// incumbent on these sequential runs.
var pinnedEffort = map[string][5]int64{
	"n6/seed1/presolve-on/first-false":   {115, 130, 809, 1, 5},
	"n6/seed1/presolve-on/first-true":    {6, 24, 11560, 1, 5},
	"n6/seed1/presolve-off/first-false":  {10292, 10315, 548419, 2, 5},
	"n6/seed1/presolve-off/first-true":   {6, 24, 11560, 1, 5},
	"n6/seed2/presolve-on/first-false":   {1802, 2334, 44984, 1, 5},
	"n6/seed2/presolve-on/first-true":    {6, 25, 3919, 1, 5},
	"n6/seed2/presolve-off/first-false":  {3762, 6577, 977787, 3, 5},
	"n6/seed2/presolve-off/first-true":   {6, 25, 3919, 1, 5},
	"n12/seed1/presolve-on/first-false":  {2367, 3579, 118099, 1, 11},
	"n12/seed1/presolve-on/first-true":   {12, 82, 21704, 1, 11},
	"n12/seed1/presolve-off/first-false": {17021, 21458, 2800141, 3, 11},
	"n12/seed1/presolve-off/first-true":  {12, 82, 21704, 1, 11},
	"n12/seed2/presolve-on/first-false":  {1787, 3871, 52896, 2, 11},
	"n12/seed2/presolve-on/first-true":   {12, 82, 7743, 1, 11},
	"n12/seed2/presolve-off/first-false": {6017, 10754, 1266066, 2, 11},
	"n12/seed2/presolve-off/first-true":  {12, 82, 7743, 1, 11},
	"n30/seed1/presolve-on/first-false":  {3392, 4758, 117949, 1, 29},
	"n30/seed1/presolve-on/first-true":   {30, 428, 45196, 1, 29},
	"n30/seed1/presolve-off/first-false": {13785, 19333, 3795148, 1, 29},
	"n30/seed1/presolve-off/first-true":  {30, 428, 45196, 1, 29},
}

// TestExportedEffortPinned checks the five exported effort counters of
// sequential Table-I solves against pinnedEffort. First-solution runs
// search sequentially whatever the worker count, so on two workers they
// match too; optimising runs on two workers depend on how the workers
// interleave and are left to TestExportMatchesReplay.
func TestExportedEffortPinned(t *testing.T) {
	region := experiments.TableIRegion()
	for key, want := range pinnedEffort {
		var n int
		var seed int64
		var presolve string
		var first bool
		if _, err := fmt.Sscanf(strings.NewReplacer("/", " ", "-", " ").Replace(key), "n%d seed%d presolve %s first %t", &n, &seed, &presolve, &first); err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		mode, err := core.ParsePresolve(presolve)
		if err != nil {
			t.Fatal(err)
		}
		mods, err := workload.Generate(workload.Config{NumModules: n}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			if workers > 1 && !first {
				continue
			}
			t.Run(fmt.Sprintf("%s/w%d", key, workers), func(t *testing.T) {
				export := obs.NewRegistry()
				opts := core.Options{StallNodes: 100, Workers: workers, Presolve: mode, FirstSolutionOnly: first, Metrics: export}
				if _, err := core.New(region, opts).Place(mods); err != nil {
					t.Fatal(err)
				}
				if got := effortOf(t, exported(t, export)); got != want {
					t.Errorf("exported %v, want %v (%v)", got, want, effortNames)
				}
			})
		}
	}
}

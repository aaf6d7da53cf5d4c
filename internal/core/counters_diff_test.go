package core_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/workload"
)

// replay is the reference of the differential test: it counts the
// search's effort from the event stream, under the names Place
// exports.
type replay struct {
	mu sync.Mutex
	n  map[string]int64
}

func newReplay() *replay { return &replay{n: map[string]int64{}} }

// Record implements obs.Recorder.
func (r *replay) Record(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Kind {
	case obs.KindPropagate:
		r.n["solver_propagations_total"]++
		r.n[`solver_propagator_runs_total{propagator="`+e.Prop+`"}`]++
	case obs.KindBacktrack:
		r.n["solver_backtracks_total"]++
	case obs.KindIncumbent:
		r.n["solver_incumbents_total"]++
		r.n["solver_best_objective"] = int64(e.Objective)
	}
}

// samples renders the replayed counts as name → value text. The three
// totals are always present, as they are in the export.
func (r *replay) samples() map[string]string {
	out := map[string]string{}
	for _, name := range []string{"solver_propagations_total", "solver_backtracks_total", "solver_incumbents_total"} {
		out[name] = "0"
	}
	for name, v := range r.n {
		out[name] = strconv.FormatInt(v, 10)
	}
	return out
}

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

// TestExportMatchesReplay is the differential test behind the solver
// counters: the totals Place exports to Options.Metrics from the
// search's own counts must equal a replay of the event stream of the
// same solve, name by name, in every configuration: Table-I workloads
// of several sizes and seeds, sequential and parallel search, presolve
// on and off, optimising and first-solution runs.
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

// compareExport solves mods once with both the export and the replay
// attached and requires the two to agree on every name.
func compareExport(t *testing.T, region *fabric.Region, mods []*module.Module, opts core.Options) {
	export, ref := obs.NewRegistry(), newReplay()
	opts.Metrics, opts.Recorder = export, ref
	res, err := core.New(region, opts).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	got, want := exported(t, export), ref.samples()
	if want[`solver_propagator_runs_total{propagator="geost.non-overlap"}`] == "" {
		t.Fatalf("replay saw no non-overlap runs: %v", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("nodes %d: export\n  %v\nreplay\n  %v", res.Nodes, got, want)
	}
}

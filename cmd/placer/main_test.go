package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func writeSpecs(t *testing.T) (regionPath, modulesPath string) {
	t.Helper()
	dir := t.TempDir()
	regionPath = filepath.Join(dir, "region.spec")
	modulesPath = filepath.Join(dir, "modules.spec")
	region := "region t 20 12\nbramcols 4 14\nbus 0\n"
	modules := "module a\ndemand 8 1 0\nalternatives 2\nmodule b\nshape\nrect 0 0 3 2 CLB\nend\n"
	if err := os.WriteFile(regionPath, []byte(region), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modulesPath, []byte(modules), 0o644); err != nil {
		t.Fatal(err)
	}
	return regionPath, modulesPath
}

func baseOpts(regionPath, modulesPath string) cliOpts {
	return cliOpts{
		regionPath:  regionPath,
		modulesPath: modulesPath,
		timeout:     5 * time.Second,
		strategy:    "first-fail",
	}
}

func TestRunHappyPath(t *testing.T) {
	regionPath, modulesPath := writeSpecs(t)
	dir := t.TempDir()
	o := baseOpts(regionPath, modulesPath)
	o.stall = 200
	o.svgPath = filepath.Join(dir, "fp.svg")
	o.pngPath = filepath.Join(dir, "fp.png")
	o.outPath = filepath.Join(dir, "placement.spec")
	o.bitstreams = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	placement, err := os.ReadFile(o.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(placement), "place a ") {
		t.Fatalf("placement file: %q", string(placement))
	}
	data, err := os.ReadFile(o.svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("svg output malformed")
	}
	pngData, err := os.ReadFile(o.pngPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pngData) < 8 || pngData[1] != 'P' || pngData[2] != 'N' || pngData[3] != 'G' {
		t.Fatal("png output malformed")
	}
}

func TestRunFirstSolution(t *testing.T) {
	regionPath, modulesPath := writeSpecs(t)
	o := baseOpts(regionPath, modulesPath)
	o.first = true
	o.strategy = "largest-first"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunObservability runs the acceptance scenario: -metrics includes
// phase timings, per-propagator invocation counts and the search's own
// effort counters, and the profiling flags write their profiles.
func TestRunObservability(t *testing.T) {
	regionPath, modulesPath := writeSpecs(t)
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	profPath := filepath.Join(dir, "cpu.prof")
	memPath := filepath.Join(dir, "mem.prof")
	o := baseOpts(regionPath, modulesPath)
	o.stall = 200
	o.obs = obs.Config{
		MetricsPath: metricsPath,
		CPUProfile:  profPath,
		MemProfile:  memPath,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	// Metrics: Prometheus format with phase timings, per-propagator
	// invocation counts and the effort counters.
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(string(prom), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(name, "#") {
			samples[name] = val
		}
	}
	for _, want := range []string{
		"phase_model_build_seconds_count",
		"phase_search_seconds_count",
		"phase_propagation_seconds_count",
		`solver_propagator_runs_total{propagator="geost.non-overlap"}`,
		"solver_branches_total",
		"solver_prunes_total",
		"solver_pruned_values_total",
		"solver_solutions_total",
		"solver_max_depth",
		"solver_best_objective",
	} {
		if samples[want] == "" {
			t.Errorf("metrics output missing %q:\n%s", want, prom)
		}
	}
	if n, _ := strconv.Atoi(samples["solver_branches_total"]); n == 0 {
		t.Errorf("no branches counted:\n%s", prom)
	}

	for _, p := range []string{profPath, memPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	regionPath, modulesPath := writeSpecs(t)
	o := baseOpts("/nonexistent", modulesPath)
	if err := run(o); err == nil {
		t.Error("missing region file accepted")
	}
	o = baseOpts(regionPath, "/nonexistent")
	if err := run(o); err == nil {
		t.Error("missing modules file accepted")
	}
	o = baseOpts(regionPath, modulesPath)
	o.strategy = "wat"
	if err := run(o); err == nil {
		t.Error("bad strategy accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []string{"first-fail", "largest-first", "input-order"} {
		if _, err := core.ParseStrategy(s); err != nil {
			t.Errorf("%s rejected: %v", s, err)
		}
	}
	if _, err := core.ParseStrategy("nope"); err == nil {
		t.Error("bad strategy accepted")
	}
}

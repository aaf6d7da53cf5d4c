// Package experiments reproduces the paper's evaluation: the Table-I
// protocol (50 runs of placing 30 generated modules with and without
// design alternatives), the illustrative figures, and the ablations the
// text argues from (heterogeneity, resource masking, number of
// alternatives, search strategy). The same harness backs cmd/experiment
// and the benchmark suite.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TableIDevice builds the canonical evaluation fabric: a 72×60 partial
// region modelled on a current-generation column-heterogeneous FPGA.
// BRAM columns sit on a 12-column pitch, each with a clean CLB gap to
// its right (module bodies extend rightwards from their memory column);
// DSP columns and the clock spine sit immediately left of BRAM columns,
// and clock-management tiles interrupt the dedicated columns every 16
// rows — the irregularity the paper calls out in modern devices.
func TableIDevice() *fabric.Device {
	dev, err := fabric.ByName("virtex4-like-72x60")
	if err != nil {
		//solverlint:allow nakedpanic the catalog entry name is a fixed literal; ByName cannot fail on it
		panic(err)
	}
	return dev
}

// TableIRegion returns the full reconfigurable region of TableIDevice.
func TableIRegion() *fabric.Region { return TableIDevice().FullRegion() }

// RunConfig parameterises one evaluation protocol run.
type RunConfig struct {
	// Region under placement; nil selects TableIRegion.
	Region *fabric.Region
	// Runs is the number of independent workload draws (paper: 50).
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Workload configures module generation (zero = paper defaults).
	Workload workload.Config
	// StallNodes is the optimiser convergence criterion (default 2000).
	StallNodes int64
	// Timeout is a per-solve safety cap (default 30s).
	Timeout time.Duration
	// Workers is the number of parallel search goroutines per solve
	// (0 or 1 = sequential branch-and-bound).
	Workers int
	// Presolve toggles the presolve pipeline on every solve (the zero
	// value runs it; core.PresolveOff is the A/B escape hatch).
	Presolve core.PresolveMode
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Metrics, when non-nil, aggregates phase timings and the solver's
	// effort counters across all solves.
	Metrics *obs.Registry
	// BenchPath, when non-empty, is where cmd/experiment writes the
	// per-testcase JSON of the table1 experiment (BENCH_table1.json).
	// The harness itself does not touch the file.
	BenchPath string
}

func (c RunConfig) defaults() RunConfig {
	if c.Region == nil {
		c.Region = TableIRegion()
	}
	if c.Runs == 0 {
		c.Runs = 50
	}
	if c.StallNodes == 0 {
		c.StallNodes = 2000
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Arm aggregates one experiment arm over all runs.
type Arm struct {
	Name string
	// Util is the per-run average resource utilization (fraction).
	Util metrics.Summary
	// Seconds is the per-run solve time.
	Seconds metrics.Summary
	// Height is the per-run occupied height in rows.
	Height metrics.Summary
	// Shapes is the mean number of shapes in play per run.
	Shapes float64
	// Failures counts runs with no complete placement.
	Failures int
}

// TableIResult is the reproduction of the paper's Table I.
type TableIResult struct {
	Runs    int
	Without Arm
	With    Arm
	// Records holds the raw per-testcase outcomes (two per run, one per
	// arm), for machine-readable export via WriteBenchJSON.
	Records []RunRecord
}

// UtilGain returns the utilization improvement in percentage points
// (paper: +11/12 points, 53% → 65%).
func (r *TableIResult) UtilGain() float64 {
	return (r.With.Util.Mean - r.Without.Util.Mean) * 100
}

// TimeRatio returns mean solve time with alternatives over without
// (paper: 10.82 s / 2.55 s ≈ 4.2).
func (r *TableIResult) TimeRatio() float64 {
	if r.Without.Seconds.Mean == 0 {
		return 0
	}
	return r.With.Seconds.Mean / r.Without.Seconds.Mean
}

// Format renders the result in the layout of the paper's Table I.
func (r *TableIResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "IMPACT OF MODULE DESIGN ALTERNATIVES ON AREA UTILIZATION AND EXECUTION TIME (%d runs)\n", r.Runs)
	fmt.Fprintf(&sb, "%-24s %-16s %-14s %-12s %-8s %s\n",
		"Type", "Mean Area Util.", "Mean Time", "Mean Height", "Shapes", "Failures")
	row := func(a Arm) {
		fmt.Fprintf(&sb, "%-24s %5.1f%% ± %4.1f     %6.2fs ± %5.2f %8.1f     %6.1f   %d\n",
			a.Name, a.Util.Mean*100, a.Util.CI95()*100,
			a.Seconds.Mean, a.Seconds.CI95(), a.Height.Mean, a.Shapes, a.Failures)
	}
	row(r.Without)
	row(r.With)
	fmt.Fprintf(&sb, "%-24s %+5.1f pts         %6.2fx\n", "Change", r.UtilGain(), r.TimeRatio())
	return sb.String()
}

// RunTableI executes the Table-I protocol: for each seeded run, generate
// the module batch, place once restricted to the primary layout (no
// design alternatives) and once with all alternatives, and aggregate
// utilization and solve time.
func RunTableI(cfg RunConfig) (*TableIResult, error) {
	cfg = cfg.defaults()
	res := &TableIResult{
		Runs:    cfg.Runs,
		Without: Arm{Name: "No design alternatives"},
		With:    Arm{Name: "Design alternatives"},
	}
	var wUtil, wSec, wHeight []float64
	var nUtil, nSec, nHeight []float64
	var wShapes, nShapes int

	placer := core.New(cfg.Region, core.Options{
		Timeout:    cfg.Timeout,
		StallNodes: cfg.StallNodes,
		Workers:    cfg.Workers,
		Presolve:   cfg.Presolve,
		Metrics:    cfg.Metrics,
	})
	for run := 0; run < cfg.Runs; run++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(run)))
		mods, err := workload.Generate(cfg.Workload, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: run %d: %w", run, err)
		}
		single := workload.FirstShapesOnly(mods)

		without, err := measure(placer, cfg.Region, single)
		if err != nil {
			return nil, fmt.Errorf("experiments: run %d (without): %w", run, err)
		}
		with, err := measure(placer, cfg.Region, mods)
		if err != nil {
			return nil, fmt.Errorf("experiments: run %d (with): %w", run, err)
		}

		res.Records = append(res.Records, record(run, "without", without), record(run, "with", with))
		nShapes += countShapes(single)
		wShapes += countShapes(mods)
		if without.Found {
			nUtil = append(nUtil, without.Utilization)
			nSec = append(nSec, without.Elapsed.Seconds())
			nHeight = append(nHeight, float64(without.Height))
		} else {
			res.Without.Failures++
		}
		if with.Found {
			wUtil = append(wUtil, with.Utilization)
			wSec = append(wSec, with.Elapsed.Seconds())
			wHeight = append(wHeight, float64(with.Height))
		} else {
			res.With.Failures++
		}
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "run %2d/%d: without=%v  with=%v\n",
				run+1, cfg.Runs, without, with)
		}
	}

	res.Without.Util = metrics.Summarize(nUtil)
	res.Without.Seconds = metrics.Summarize(nSec)
	res.Without.Height = metrics.Summarize(nHeight)
	res.Without.Shapes = float64(nShapes) / float64(cfg.Runs)
	res.With.Util = metrics.Summarize(wUtil)
	res.With.Seconds = metrics.Summarize(wSec)
	res.With.Height = metrics.Summarize(wHeight)
	res.With.Shapes = float64(wShapes) / float64(cfg.Runs)
	return res, nil
}

// measure runs one placement and validates the result before returning
// it — an invalid placement is a solver bug, not an experiment outcome.
func measure(p *core.Placer, region *fabric.Region, mods []*module.Module) (*core.Result, error) {
	res, err := p.Place(mods)
	if err != nil {
		return nil, err
	}
	if err := res.Validate(region); err != nil {
		return nil, err
	}
	return res, nil
}

func countShapes(mods []*module.Module) int {
	n := 0
	for _, m := range mods {
		n += m.NumShapes()
	}
	return n
}

// Package repro_test benchmarks regenerate the paper's evaluation
// artifacts: one benchmark (or benchmark pair) per table and figure,
// plus the ablations described in DESIGN.md. Quality metrics are
// attached to the benchmark output via ReportMetric:
//
//	util_pct     average resource utilization of the placement (%)
//	height_rows  occupied height of the placement (rows)
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/online"
	"repro/internal/workload"
)

// benchPlacerOptions is the per-solve configuration used across the
// benchmark suite: the same convergence criterion as the experiments at
// a benchmark-friendly scale.
func benchPlacerOptions() core.Options {
	return core.Options{Timeout: 30 * time.Second, StallNodes: 800}
}

// reportPlacement attaches the quality metrics of a placement run.
// Nodes and backtracks are search-effort metrics: deterministic for a
// given configuration, they expose presolve/pruning regressions that
// ns/op alone would hide behind machine noise (scripts/benchgate.sh
// gates on them).
func reportPlacement(b *testing.B, res *core.Result) {
	b.Helper()
	if !res.Found {
		b.Fatal("no placement found")
	}
	b.ReportMetric(res.Utilization*100, "util_pct")
	b.ReportMetric(float64(res.Height), "height_rows")
	b.ReportMetric(float64(res.Nodes), "nodes")
	b.ReportMetric(float64(res.Backtracks), "backtracks")
}

// BenchmarkTable1 regenerates Table I: the same generated module batch
// placed without design alternatives (primary layout only) and with all
// four alternatives. Compare the two sub-benchmarks' util_pct and ns/op:
// the paper reports 53%→65% and 2.55s→10.82s.
func BenchmarkTable1(b *testing.B) {
	region := experiments.TableIRegion()
	mods := workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1)))
	single := workload.FirstShapesOnly(mods)
	placer := core.New(region, benchPlacerOptions())

	b.Run("NoAlternatives", func(b *testing.B) {
		var last *core.Result
		for i := 0; i < b.N; i++ {
			res, err := placer.Place(single)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPlacement(b, last)
	})
	b.Run("Alternatives", func(b *testing.B) {
		var last *core.Result
		for i := 0; i < b.N; i++ {
			res, err := placer.Place(mods)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPlacement(b, last)
	})
	// The A/B arm for the presolve layer: identical instance and
	// convergence criterion, pipeline disabled. Compare nodes and
	// height_rows against Alternatives for the presolve effect.
	b.Run("AlternativesPresolveOff", func(b *testing.B) {
		opts := benchPlacerOptions()
		opts.Presolve = core.PresolveOff
		off := core.New(region, opts)
		var last *core.Result
		for i := 0; i < b.N; i++ {
			res, err := off.Place(mods)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPlacement(b, last)
	})
}

// BenchmarkTable1Seeds solves every instance of the repository
// benchmark's table1-cold corpus (table1ColdCorpus), one sub-benchmark
// each, and checks its height against the benchgate pin in
// BENCH_solver.json. table1-cold's latency_tail_ms is a high
// percentile over only 20 instances, so it is set by the two or three
// slowest of them; this benchmark shows which ones, and how their
// solve times move, without the serving path around them.
func BenchmarkTable1Seeds(b *testing.B) {
	base, err := readGateFile()
	if err != nil {
		b.Fatal(err)
	}
	pins := map[string]int{}
	for _, rec := range base.Scenarios {
		pins[rec.Name] = rec.Height
	}
	region := experiments.TableIRegion()
	placer := core.New(region, core.Options{Timeout: 60 * time.Second, StallNodes: 800})
	for _, c := range table1ColdCorpus() {
		want, ok := pins["table1-cold/"+c.label]
		if !ok {
			b.Fatalf("%s pins no height for table1-cold/%s", benchGatePath, c.label)
		}
		b.Run(c.label, func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := placer.Place(c.mods)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPlacement(b, last)
			if last.Height != want {
				b.Fatalf("height %d, %s pins %d", last.Height, benchGatePath, want)
			}
		})
	}
}

// BenchmarkTable1Parallel times exhaustive proofs, where parallel
// branch-and-bound pays: each op proves the minimum height of the
// primary-layout arm of two 8-module Table-I batches (seeds 3 and 4,
// which one worker proves in about 1.3 s and 2.5 s on a 2-vCPU host), at
// 1 and 2 workers. A solve that ends without a proof fails the
// benchmark, so ns/op never mixes proofs with timeouts. The workers1
// sub-benchmark is the sequential search on the caller's store, the
// baseline for speedup claims; height_rows and nodes are summed over
// the two batches; above 1 worker, nodes can vary from run to run.
func BenchmarkTable1Parallel(b *testing.B) {
	region := experiments.TableIRegion()
	var batches [][]*module.Module
	for _, seed := range []int64{3, 4} {
		mods := workload.MustGenerate(workload.Config{NumModules: 8}, rand.New(rand.NewSource(seed)))
		batches = append(batches, workload.FirstShapesOnly(mods))
	}
	for _, workers := range []int{1, 2} {
		// No stall budget: every solve runs to its proof, under a
		// safety cap.
		opts := core.Options{Timeout: 60 * time.Second, Workers: workers}
		b.Run(benchName("workers", workers), func(b *testing.B) {
			placer := core.New(region, opts)
			var height, nodes int64
			for i := 0; i < b.N; i++ {
				height, nodes = 0, 0
				for _, mods := range batches {
					res, err := placer.Place(mods)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Optimal {
						b.Fatalf("no proof: reason %v after %v", res.Reason, res.Elapsed)
					}
					height += int64(res.Height)
					nodes += res.Nodes
				}
			}
			b.ReportMetric(float64(height), "height_rows")
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// benchFigScenario runs a figure scenario (module set on its region)
// with and without alternatives.
func benchFigScenario(b *testing.B, region *fabric.Region, mods []*module.Module) {
	b.Helper()
	placer := core.New(region, benchPlacerOptions())
	single := workload.FirstShapesOnly(mods)
	b.Run("NoAlternatives", func(b *testing.B) {
		var last *core.Result
		for i := 0; i < b.N; i++ {
			res, err := placer.Place(single)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPlacement(b, last)
	})
	b.Run("Alternatives", func(b *testing.B) {
		var last *core.Result
		for i := 0; i < b.N; i++ {
			res, err := placer.Place(mods)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPlacement(b, last)
	})
}

// BenchmarkFig3Scenario regenerates the Figure 3 comparison: six modules
// with a base layout and its 180° rotation on a small heterogeneous
// region.
func BenchmarkFig3Scenario(b *testing.B) {
	spec := fabric.Spec{Name: "fig3", W: 24, H: 12, BRAMColumns: []int{4, 16}}
	region := spec.MustBuild().FullRegion()
	mods := workload.MustGenerate(workload.Config{
		NumModules: 6, CLBMin: 6, CLBMax: 14, BRAMMax: 2, Alternatives: 2,
	}, rand.New(rand.NewSource(1)))
	benchFigScenario(b, region, mods)
}

// BenchmarkFig5Scenario regenerates the Figure 5 comparison: twelve
// modules with four alternatives on a wider region.
func BenchmarkFig5Scenario(b *testing.B) {
	spec := fabric.Spec{Name: "fig5", W: 36, H: 24, BRAMColumns: []int{5, 17, 29}, DSPColumns: []int{16}}
	region := spec.MustBuild().FullRegion()
	mods := workload.MustGenerate(workload.Config{
		NumModules: 12, CLBMin: 8, CLBMax: 24, BRAMMax: 3, Alternatives: 4,
	}, rand.New(rand.NewSource(5)))
	benchFigScenario(b, region, mods)
}

// BenchmarkBaselines compares the heuristic placers (with design
// alternatives enabled) against the CP placer on the Table-I workload —
// context for the ~36% utilization the paper cites for prior heuristic
// flows.
func BenchmarkBaselines(b *testing.B) {
	region := experiments.TableIRegion()
	mods := workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1)))

	b.Run("constraint-programming", func(b *testing.B) {
		placer := core.New(region, benchPlacerOptions())
		var last *core.Result
		for i := 0; i < b.N; i++ {
			res, err := placer.Place(mods)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reportPlacement(b, last)
	})
	for _, alg := range baseline.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := baseline.Place(region, mods, alg, baseline.Options{
					UseAlternatives: true, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPlacement(b, last)
		})
	}
}

// BenchmarkAlternativeCount sweeps the number of design alternatives per
// module (ablation): utilization should rise and solve time grow with k.
func BenchmarkAlternativeCount(b *testing.B) {
	region := experiments.TableIRegion()
	for _, k := range []int{1, 2, 4, 8} {
		mods := workload.MustGenerate(workload.Config{Alternatives: k},
			rand.New(rand.NewSource(1)))
		b.Run(benchName("k", k), func(b *testing.B) {
			placer := core.New(region, benchPlacerOptions())
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := placer.Place(mods)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPlacement(b, last)
		})
	}
}

// BenchmarkHeterogeneity places the same CLB-only workload on a
// homogeneous fabric and on the heterogeneous Table-I fabric (ablation):
// dedicated-resource columns restrict placement.
func BenchmarkHeterogeneity(b *testing.B) {
	het := experiments.TableIRegion()
	homo := fabric.Homogeneous(het.W(), het.H()).FullRegion()
	mods := workload.MustGenerate(workload.Config{NoBRAM: true},
		rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		name   string
		region *fabric.Region
	}{
		{"homogeneous", homo},
		{"heterogeneous", het},
	} {
		b.Run(tc.name, func(b *testing.B) {
			placer := core.New(tc.region, benchPlacerOptions())
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := placer.Place(mods)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPlacement(b, last)
		})
	}
}

// BenchmarkMaskedResources contrasts native BRAM use with [9]-style
// masking (BRAM demand lowered onto extra CLBs), the ablation behind the
// paper's argument that masking dedicated resources is detrimental.
func BenchmarkMaskedResources(b *testing.B) {
	region := experiments.TableIRegion()
	rng := rand.New(rand.NewSource(1))
	demands := make([]module.Demand, 30)
	for i := range demands {
		demands[i] = module.Demand{CLB: 20 + rng.Intn(81), BRAM: rng.Intn(5)}
	}
	build := func(mask bool) []*module.Module {
		mods := make([]*module.Module, len(demands))
		for i, d := range demands {
			opts := module.AlternativeOptions{Count: 4}
			if mask {
				d = module.Demand{CLB: d.CLB + experiments.MaskedCLBPerBRAM*d.BRAM}
				if module.BalancedWidth(d) > 10 {
					opts.BaseWidth = 10
				}
			}
			m, err := module.GenerateAlternatives(benchName("m", i), d, opts)
			if err != nil {
				b.Fatal(err)
			}
			mods[i] = m
		}
		return mods
	}
	for _, tc := range []struct {
		name string
		mask bool
	}{
		{"native", false},
		{"masked", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mods := build(tc.mask)
			placer := core.New(region, benchPlacerOptions())
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := placer.Place(mods)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPlacement(b, last)
		})
	}
}

// BenchmarkSearchStrategy sweeps the placer's branching strategies and
// value orderings (ablation on the design choices in DESIGN.md).
func BenchmarkSearchStrategy(b *testing.B) {
	region := experiments.TableIRegion()
	mods := workload.MustGenerate(workload.Config{NumModules: 15},
		rand.New(rand.NewSource(1)))
	for _, s := range []core.Strategy{core.StrategyFirstFail, core.StrategyLargestFirst, core.StrategyInputOrder} {
		for _, v := range []core.ValueOrder{core.OrderBottomLeft, core.OrderLexicographic} {
			opts := benchPlacerOptions()
			opts.Strategy = s
			opts.ValueOrder = v
			b.Run(s.String()+"/"+v.String(), func(b *testing.B) {
				placer := core.New(region, opts)
				var last *core.Result
				for i := 0; i < b.N; i++ {
					res, err := placer.Place(mods)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				reportPlacement(b, last)
			})
		}
	}
}

// BenchmarkValidAnchors measures the anchor-precomputation cost (the
// fused M_a ∧ M_b constraint) for one shape on the Table-I region.
func BenchmarkValidAnchors(b *testing.B) {
	region := experiments.TableIRegion()
	m, err := module.GenerateAlternatives("m", module.Demand{CLB: 60, BRAM: 2},
		module.AlternativeOptions{Count: 1})
	if err != nil {
		b.Fatal(err)
	}
	shape := m.Shape(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ValidAnchors(region, shape)
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + string(buf[i:])
}

// BenchmarkOnlineManagers runs the online space-management comparison
// (the related-work axes: free-space vs occupied-space management, 1D
// slots vs 2D placement, design alternatives online) on a saturating
// task stream over the Table-I region. service_pct is the fraction of
// arrivals successfully placed.
func BenchmarkOnlineManagers(b *testing.B) {
	region := experiments.TableIRegion()
	stream := online.StreamConfig{Tasks: 150, MeanInterarrival: 2, MeanDuration: 120}
	stream.Library.CLBMin, stream.Library.CLBMax = 10, 60
	stream.Library.BRAMMax = 3
	stream.Library.Alternatives = 4
	stream.Library.NumModules = 1
	tasks, err := online.GenerateStream(stream, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, mgr := range online.Managers() {
		b.Run(mgr.Name(), func(b *testing.B) {
			var last *online.Stats
			for i := 0; i < b.N; i++ {
				st, err := online.Simulate(region, mgr, tasks, fabric.DefaultFrameModel())
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.ServiceLevel*100, "service_pct")
			b.ReportMetric(last.MeanUtil*100, "util_pct")
		})
	}
}

// BenchmarkPropagationStrength contrasts plain forward-checking
// non-overlap with geost compulsory-part pruning (ablation on the
// constraint kernel's design).
func BenchmarkPropagationStrength(b *testing.B) {
	region := experiments.TableIRegion()
	mods := workload.MustGenerate(workload.Config{NumModules: 15},
		rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		name   string
		strong bool
	}{
		{"forward-checking", false},
		{"compulsory-part", true},
	} {
		opts := benchPlacerOptions()
		opts.StrongPropagation = tc.strong
		b.Run(tc.name, func(b *testing.B) {
			placer := core.New(region, opts)
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := placer.Place(mods)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportPlacement(b, last)
		})
	}
}

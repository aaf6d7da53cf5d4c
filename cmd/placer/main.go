// Command placer runs the design flow of Figure 2 from the shell: it
// reads a partial-region description and a module specification
// (ReCoBus-style text formats, see internal/recobus), computes an
// optimised placement, prints the floorplan, and optionally assembles
// bitstreams or writes an SVG rendering.
//
// Example:
//
//	placer -region region.spec -modules modules.spec -svg floorplan.svg
//
// Observability: -metrics dumps phase timings and the search's effort
// counters (summary table on "-", Prometheus text format on a file
// path), and -cpuprofile/-memprofile/-pprof-addr expose the standard Go
// profiling hooks:
//
//	placer -region region.spec -modules modules.spec -metrics -
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recobus"
	"repro/internal/render"
)

// cliOpts carries the parsed command line into run.
type cliOpts struct {
	regionPath  string
	modulesPath string
	timeout     time.Duration
	stall       int64
	workers     int
	first       bool
	strategy    string
	presolve    string
	svgPath     string
	pngPath     string
	outPath     string
	bitstreams  bool
	obs         obs.Config
}

func main() {
	var o cliOpts
	flag.StringVar(&o.regionPath, "region", "", "partial-region description file (required)")
	flag.StringVar(&o.modulesPath, "modules", "", "module specification file (required)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "optimisation budget")
	flag.Int64Var(&o.stall, "stall", 2000, "stop after this many nodes without improvement")
	flag.IntVar(&o.workers, "workers", 1, "parallel search goroutines (>1 enables parallel branch-and-bound)")
	flag.BoolVar(&o.first, "first", false, "stop at the first feasible placement")
	flag.StringVar(&o.strategy, "strategy", "first-fail", "branching: first-fail, largest-first, input-order")
	flag.StringVar(&o.presolve, "presolve", "on", "presolve pipeline: on, off (escape hatch for debugging and A/B runs)")
	flag.StringVar(&o.svgPath, "svg", "", "write an SVG floorplan to this file")
	flag.StringVar(&o.pngPath, "png", "", "write a PNG floorplan to this file")
	flag.StringVar(&o.outPath, "out", "", "write the placement file (for checkplacement / external tools)")
	flag.BoolVar(&o.bitstreams, "bitstreams", false, "assemble and summarise bitstreams")
	addObsFlags(&o.obs)
	flag.Parse()
	if o.regionPath == "" || o.modulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "placer:", err)
		os.Exit(1)
	}
}

// addObsFlags registers the shared observability flag set.
func addObsFlags(cfg *obs.Config) {
	flag.StringVar(&cfg.MetricsPath, "metrics", "", "dump metrics at exit: - for a summary table, a path for Prometheus text format")
	flag.StringVar(&cfg.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&cfg.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

func run(o cliOpts) (err error) {
	regionFile, err := os.Open(o.regionPath)
	if err != nil {
		return err
	}
	defer regionFile.Close()
	modulesFile, err := os.Open(o.modulesPath)
	if err != nil {
		return err
	}
	defer modulesFile.Close()

	flow, err := recobus.LoadFlow(regionFile, modulesFile)
	if err != nil {
		return err
	}
	strat, err := core.ParseStrategy(o.strategy)
	if err != nil {
		return err
	}
	presolve, err := core.ParsePresolve(o.presolve)
	if err != nil {
		return err
	}
	session, err := obs.Start(o.obs)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := session.Close(); err == nil {
			err = cerr
		}
	}()

	res, err := flow.Place(core.Options{
		Timeout:           o.timeout,
		StallNodes:        o.stall,
		Workers:           o.workers,
		FirstSolutionOnly: o.first,
		Strategy:          strat,
		Presolve:          presolve,
		Metrics:           session.Registry,
	})
	if err != nil {
		return err
	}
	if !res.Found {
		return fmt.Errorf("no feasible placement for this module set (search %s)", res.Reason)
	}

	fmt.Println(res)
	fmt.Printf("search: reason=%s backtracks=%d propagations=%d\n",
		res.Reason, res.Backtracks, res.Propagations)
	if len(res.ObjectiveTrace) > 0 {
		fmt.Print("objective trace:")
		for _, p := range res.ObjectiveTrace {
			fmt.Printf(" %d@%v", p.Objective, p.Elapsed.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println(render.PlacementsWithRuler(flow.Region, res.Placements))

	if o.bitstreams {
		bs, err := flow.Assemble(res)
		if err != nil {
			return err
		}
		fmt.Println("bitstreams:")
		for _, b := range bs {
			fmt.Println(" ", b)
		}
		fmt.Println("total reconfiguration time:", recobus.TotalReconfigTime(bs))
	}

	if o.svgPath != "" {
		f, err := os.Create(o.svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := render.SVG(f, flow.Region, res.Placements, 10); err != nil {
			return err
		}
		fmt.Println("wrote", o.svgPath)
	}
	if o.pngPath != "" {
		f, err := os.Create(o.pngPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := render.PNG(f, flow.Region, res.Placements, 10); err != nil {
			return err
		}
		fmt.Println("wrote", o.pngPath)
	}
	if o.outPath != "" {
		f, err := os.Create(o.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := recobus.WritePlacement(f, res); err != nil {
			return err
		}
		fmt.Println("wrote", o.outPath)
	}
	return nil
}

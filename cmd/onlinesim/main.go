// Command onlinesim runs the online placement simulator: a seeded task
// stream is served on a device by each space-management policy, and the
// resulting service levels, utilization and fragmentation are compared.
//
// Examples:
//
//	onlinesim -device virtex4-like-72x60 -tasks 200
//	onlinesim -region region.spec -manager first-fit+alternatives
//	onlinesim -manager first-fit+cp-replan -metrics -
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/recobus"
)

// replanArm names first-fit with alternatives whose greedy rejections
// fall back to a CP replan of the whole residency.
const replanArm = "first-fit+cp-replan"

// cliOpts carries the parsed command line into run.
type cliOpts struct {
	device     string
	regionPath string
	tasks      int
	seed       int64
	interarr   int
	duration   int
	clbMin     int
	clbMax     int
	bramMax    int
	manager    string
	workers    int
	obs        obs.Config
}

func main() {
	var o cliOpts
	flag.StringVar(&o.device, "device", "virtex4-like-72x60", "predefined device name")
	flag.StringVar(&o.regionPath, "region", "", "partial-region description file (overrides -device)")
	flag.IntVar(&o.tasks, "tasks", 200, "number of task arrivals")
	flag.Int64Var(&o.seed, "seed", 1, "stream seed")
	flag.IntVar(&o.interarr, "interarrival", 2, "mean inter-arrival time")
	flag.IntVar(&o.duration, "duration", 120, "mean task residency")
	flag.IntVar(&o.clbMin, "clbmin", 10, "minimum CLB demand per task")
	flag.IntVar(&o.clbMax, "clbmax", 60, "maximum CLB demand per task")
	flag.IntVar(&o.bramMax, "brammax", 3, "maximum BRAM demand per task")
	flag.StringVar(&o.manager, "manager", "", "run only this manager (default: all)")
	flag.IntVar(&o.workers, "workers", 1, "parallel search goroutines for CP replanning (>1 enables parallel branch-and-bound)")
	flag.StringVar(&o.obs.MetricsPath, "metrics", "", "dump metrics at exit: - for a summary table, a path for Prometheus text format")
	flag.StringVar(&o.obs.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.obs.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&o.obs.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "onlinesim:", err)
		os.Exit(1)
	}
}

func run(o cliOpts) (err error) {
	var region *fabric.Region
	if o.regionPath != "" {
		f, err := os.Open(o.regionPath)
		if err != nil {
			return err
		}
		defer f.Close()
		spec, err := recobus.ParseRegion(f)
		if err != nil {
			return err
		}
		region, err = spec.Build()
		if err != nil {
			return err
		}
	} else {
		dev, err := fabric.ByName(o.device)
		if err != nil {
			return err
		}
		region = dev.FullRegion()
	}

	stream := online.StreamConfig{
		Tasks:            o.tasks,
		MeanInterarrival: o.interarr,
		MeanDuration:     o.duration,
	}
	stream.Library.CLBMin, stream.Library.CLBMax = o.clbMin, o.clbMax
	stream.Library.BRAMMax = o.bramMax
	stream.Library.NoBRAM = o.bramMax == 0
	stream.Library.Alternatives = 4
	stream.Library.NumModules = 1

	ts, err := online.GenerateStream(stream, rand.New(rand.NewSource(o.seed)))
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

	fmt.Printf("region %s (%dx%d), %d arrivals\n\n",
		region.Device().Name(), region.W(), region.H(), len(ts))

	type arm struct {
		name   string
		mgr    online.Manager
		replan *core.Options // nil: greedy admission only
	}
	var arms []arm
	for _, mgr := range online.Managers() {
		arms = append(arms, arm{name: mgr.Name(), mgr: mgr})
	}
	// The CP-replan arm is expensive (one constraint solve per greedy
	// rejection), so it only runs when explicitly requested.
	if o.manager == replanArm {
		arms = append(arms, arm{
			name:   replanArm,
			mgr:    &online.FirstFit{UseAlternatives: true},
			replan: &core.Options{Workers: o.workers, Metrics: session.Registry},
		})
	}
	ran := false
	for _, a := range arms {
		if o.manager != "" && a.name != o.manager {
			continue
		}
		st, err := online.SimulateObserved(region, a.mgr, ts, fabric.DefaultFrameModel(), a.replan, session.Registry)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s %v\n", a.name, st)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown manager %q", o.manager)
	}
	return nil
}

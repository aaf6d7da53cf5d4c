// Command experiment regenerates the paper's evaluation artifacts:
// Table I, Figures 1/3/4/5 and the ablation tables. Each experiment is
// selected with -exp; -exp all runs everything at the configured scale.
//
// Examples:
//
//	experiment -exp table1 -runs 50          # the full Table-I protocol
//	experiment -exp table1 -runs 5 -quiet    # a quick look
//	experiment -exp fig3                     # side-by-side placements
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/workload"
)

func main() {
	exp, cfg, obsCfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
	session, err := obs.Start(obsCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
	cfg.Recorder = session.Recorder
	cfg.Metrics = session.Registry

	runErr := run(os.Stdout, exp, cfg)
	if cerr := session.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiment:", runErr)
		os.Exit(1)
	}
}

// parseFlags reads the command line: the experiment, its run
// configuration and the observability settings. A malformed flag exits
// with the usage text.
func parseFlags(args []string) (string, experiments.RunConfig, obs.Config, error) {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "table1", "experiment: table1, fig1, fig3, fig4, fig5, altcount, heterogeneity, masked, strategy, baselines, online, schedule, relocate, all")
		runs     = fs.Int("runs", 50, "number of seeded runs for table experiments")
		seed     = fs.Int64("seed", 1, "base seed")
		stall    = fs.Int64("stall", 2000, "optimiser convergence: nodes without improvement")
		workers  = fs.Int("workers", 1, "parallel search goroutines per solve (>1 enables parallel branch-and-bound)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-solve safety cap")
		presolve = fs.String("presolve", "on", "presolve pipeline: on, off (A/B escape hatch)")
		modules  = fs.Int("modules", 0, "modules per run (0 = paper default of 30)")
		quiet    = fs.Bool("quiet", false, "suppress per-run progress lines")
		benchOut = fs.String("bench-out", "", "write the table1 experiment's per-testcase JSON to this file")
		obsCfg   obs.Config
	)
	fs.StringVar(&obsCfg.TracePath, "trace", "", "write the solver JSONL event trace to this file (- for stdout)")
	fs.StringVar(&obsCfg.MetricsPath, "metrics", "", "dump metrics at exit: - for a summary table, a path for Prometheus text format")
	fs.StringVar(&obsCfg.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&obsCfg.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&obsCfg.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.Parse(args)

	pre, err := core.ParsePresolve(*presolve)
	if err != nil {
		return "", experiments.RunConfig{}, obsCfg, err
	}
	cfg := experiments.RunConfig{
		Runs:       *runs,
		Seed:       *seed,
		StallNodes: *stall,
		Timeout:    *timeout,
		Workers:    *workers,
		Presolve:   pre,
		Workload:   workload.Config{NumModules: *modules},
		BenchPath:  *benchOut,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	return *exp, cfg, obsCfg, nil
}

func run(w io.Writer, exp string, cfg experiments.RunConfig) error {
	switch exp {
	case "table1":
		res, err := experiments.RunTableI(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		if cfg.BenchPath != "" {
			f, err := os.Create(cfg.BenchPath)
			if err != nil {
				return err
			}
			if err := experiments.WriteBenchJSON(f, res); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", cfg.BenchPath)
		}
	case "fig1":
		fmt.Fprintln(w, experiments.Fig1())
	case "fig3":
		out, err := experiments.Fig3()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	case "fig4":
		out, err := experiments.Fig4()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	case "fig5":
		out, err := experiments.Fig5()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	case "altcount":
		rows, err := experiments.AlternativeCountSweep(cfg, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRows("ABLATION: NUMBER OF DESIGN ALTERNATIVES", rows))
	case "heterogeneity":
		rows, err := experiments.HeterogeneitySweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRows("ABLATION: FABRIC HETEROGENEITY (CLB-only workload)", rows))
	case "masked":
		rows, err := experiments.MaskedResourcesComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRows("ABLATION: MASKING DEDICATED RESOURCES ([9]-style)", rows))
	case "strategy":
		rows, err := experiments.StrategySweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRows("ABLATION: SEARCH STRATEGY", rows))
	case "baselines":
		rows, err := experiments.BaselineComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRows("BASELINE PLACERS VS CONSTRAINT PROGRAMMING", rows))
	case "online":
		rows, err := experiments.OnlineComparison(cfg, online.StreamConfig{})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatOnlineRows("ONLINE SPACE MANAGEMENT (related-work axes)", rows))
	case "schedule":
		rows, err := experiments.ScheduleComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatScheduleRows("RUNTIME RECONFIGURATION: FRESH VS PERSISTENT PLANNING", rows))
	case "relocate":
		rows, err := experiments.RelocationComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatRelocationRows("BITSTREAM RELOCATION CLASSES ([9] trade-off)", rows))
	case "all":
		for _, e := range []string{"table1", "fig1", "fig3", "fig4", "fig5", "altcount", "heterogeneity", "masked", "strategy", "baselines", "online", "schedule", "relocate"} {
			fmt.Fprintf(w, "==== %s ====\n", e)
			if err := run(w, e, cfg); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

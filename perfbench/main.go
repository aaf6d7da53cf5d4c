// Command perfbench is the repository benchmark. It starts the real
// placement service in-process behind a loopback listener, drives one
// closed-loop workload against it, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	table1-cold    the paper's Table-I instances, every request a cache miss
//	place-hit      a warmed pool replayed by one client, every request a hit
//	session-churn  online sessions under an arrive/depart/defrag mix
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
	// tamper, when set, rewrites every answer of the measured phase
	// before it is checked; the self-test uses it to prove that a
	// corrupted placement is caught.
	tamper func(body []byte) []byte
}

// sizes are the instance sizes of the workloads.
type sizes struct {
	// coldSeeds are the Table-I generator seeds of the table1-cold
	// corpus; every seed contributes both arms.
	coldSeeds   []int64
	coldModules int
	coldStall   int64
	// coldHeights pins the height of every corpus instance
	// ("<seed>/<arm>"); nil skips the check.
	coldHeights map[string]int
	hitPool     int
	hitModules  int
	hitStall    int64
	// churnScripts are the generator seeds of the session-churn
	// corpus; each runs under every manager. A session is churnOps
	// operations, the first churnFill of them arrivals, and a run holds
	// one session for every churnSpan of --seconds, and the whole corpus
	// at least once.
	churnScripts []int64
	churnOps     int
	churnFill    int
	churnSpan    time.Duration
}

// fullSizes are the sizes the benchmark runs at.
func fullSizes() sizes {
	return sizes{
		coldSeeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		coldModules:  30,
		coldStall:    800,
		coldHeights:  pinnedHeights,
		hitPool:      8,
		hitModules:   30,
		hitStall:     10,
		churnScripts: []int64{1, 2},
		churnOps:     170,
		churnFill:    70,
		churnSpan:    5 * time.Second,
	}
}

// endToEnd accumulates what the untraced run measures.
type endToEnd struct {
	setup     []float64       // seconds, one per set-up repetition
	lat       []time.Duration // latencies of the workload's primary request
	calls     int             // completed calls of every kind
	busy      time.Duration   // summed latency of those calls
	elapsed   time.Duration
	alloc     uint64
	util      []float64
	admitted  int
	arrivals  int
	frames    int // configuration frames charged to the admitted modules
	refused   int // defrags refused as unschedulable (not a failure)
	attempted int64
	failed    int64
	errs      []string
	// blocked are the latencies of the session arrivals the free-space
	// manager could not place, which went on to the CP replan. When a
	// run has any, latency_p50_ms is their median: a greedy admit is a
	// tenth of a millisecond of loopback round trip, and its median
	// spreads 15-27% between runs on a shared 2-vCPU host, past any
	// bound a regression gate could use.
	blocked []time.Duration
}

// fail records one incorrect or failed answer.
func (e *endToEnd) fail(format string, args ...any) {
	e.failed++
	if len(e.errs) < 5 {
		e.errs = append(e.errs, fmt.Sprintf(format, args...))
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists the end-to-end metrics; BENCHMARK.json names the
// same set.
var endToEndUnits = map[string]string{
	"setup_s":                   "s",
	"latency_p50_ms":            "ms",
	"latency_tail_ms":           "ms",
	"throughput_rps":            "req/s",
	"alloc_mb_per_req":          "MB",
	"utilization":               "ratio",
	"service_level":             "ratio",
	"reconfig_frames_per_admit": "frames",
}

// layerUnits lists the per-layer metrics of the traced run. A layer a
// workload does not exercise reads 0.
var layerUnits = map[string]string{
	"service.decode_ms":             "ms",
	"service.queue_wait_ms":         "ms",
	"service.hit_ratio":             "ratio",
	"service.solves":                "count",
	"service.rejected":              "count",
	"service.residual_ms":           "ms",
	"workload.generate_ms":          "ms",
	"module.build_ms":               "ms",
	"canon.digest_ms":               "ms",
	"core.valid_anchors_ms":         "ms",
	"core.anchors":                  "count",
	"core.model_build_ms":           "ms",
	"presolve.ms":                   "ms",
	"presolve.alternatives_dropped": "count",
	"presolve.warm_height":          "rows",
	"geost.propagation_ms":          "ms",
	"geost.runs.non-overlap":        "count",
	"geost.runs.top-link":           "count",
	"geost.runs.height-bound":       "count",
	"geost.runs.compulsory":         "count",
	"csp.search_self_ms":            "ms",
	"csp.proof_ms":                  "ms",
	"csp.nodes":                     "count",
	"csp.backtracks":                "count",
	"csp.propagations":              "count",
	"csp.propagations_per_node":     "ratio",
	"online.place_greedy_us":        "us",
	"online.place_fallback_ms":      "ms",
	"online.replan_admit_ratio":     "ratio",
	"online.release_us":             "us",
	"online.defrag_ms":              "ms",
	"online.defrag_moves":           "count",
	"online.defrag_refused_ratio":   "ratio",
	"online.audit_us":               "us",
	"online.mer_us":                 "us",
	"online.mer_rects":              "count",
	"online.stats_us":               "us",
	"obs.tracing_overhead_pct":      "%",
	"unaccounted_pct":               "%",
}

// outcome is what one workload run produced.
type outcome struct {
	e2e    endToEnd
	layers map[string]float64 // traced run only
	tail   float64            // percentile the tail latency was taken at
}

var workloads = map[string]func(config) (*outcome, error){
	"table1-cold":   runCold,
	"place-hit":     runHit,
	"session-churn": runChurn,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: table1-cold, place-hit or session-churn")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		size:     fullSizes(),
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and reports its metrics; log receives the
// host stamp and a readable summary.
func run(cfg config, log io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have table1-cold, place-hit, session-churn)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	stamp(log, cfg)
	out, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	e := &out.e2e
	for _, msg := range e.errs {
		fmt.Fprintln(log, "FAIL:", msg)
	}
	res := &result{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metric{},
	}
	values := endToEndValues(out)
	units := endToEndUnits
	if cfg.trace {
		values, units = out.layers, layerUnits
	}
	for name, unit := range units {
		res.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	fmt.Fprintf(log, "error_rate %.6f ratio (%d failed of %d attempted)\n",
		float64(e.failed)/float64(max(e.attempted, 1)), e.failed, e.attempted)
	fmt.Fprintf(log, "latency_tail_ms is p%g of %d samples\n", out.tail, len(e.lat))
	if len(e.blocked) > 0 {
		fmt.Fprintf(log, "latency_p50_ms is the median of %d blocked arrivals; the median of all %d arrivals, a greedy admit, is %.4f ms (not gated)\n",
			len(e.blocked), len(e.lat), quantile(sortedMs(e.lat), 0.5))
	}
	if e.refused > 0 {
		fmt.Fprintf(log, "%d defrags refused: compaction blocked by a relocation cycle\n", e.refused)
	}
	if cfg.trace && math.Abs(values["unaccounted_pct"]) > 10 {
		fmt.Fprintf(log, "WARNING: per-layer self times miss the traced end-to-end time by %.1f%% (limit 10%%)\n",
			values["unaccounted_pct"])
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics of an untraced run.
func endToEndValues(out *outcome) map[string]float64 {
	e := &out.e2e
	lat := sortedMs(e.lat)
	pct, tailMs := tail(lat)
	out.tail = pct
	p50 := lat
	if len(e.blocked) > 0 {
		p50 = sortedMs(e.blocked)
	}
	v := map[string]float64{
		"setup_s":         median(e.setup),
		"latency_p50_ms":  quantile(p50, 0.5),
		"latency_tail_ms": tailMs,
		"utilization":     mean(e.util),
	}
	if e.elapsed > 0 {
		v["throughput_rps"] = float64(e.calls) / e.elapsed.Seconds()
	}
	if e.calls > 0 {
		v["alloc_mb_per_req"] = float64(e.alloc) / 1e6 / float64(e.calls)
	}
	if e.arrivals > 0 {
		v["service_level"] = float64(e.admitted) / float64(e.arrivals)
	}
	if e.admitted > 0 {
		v["reconfig_frames_per_admit"] = float64(e.frames) / float64(e.admitted)
	}
	return v
}

// stamp records the host and build with every result.
func stamp(w io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

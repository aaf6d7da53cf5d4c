// Command loadgen is the chaos/soak driver for placed: it replays a
// seeded stream of placement workloads against a live daemon —
// typically one running with -faults — and asserts the robustness
// contract on every answer:
//
//   - every 200 response decodes, and when it carries a placement the
//     placement passes the core validity checks (in-bounds, on
//     compatible tiles, non-overlapping) against the request's own
//     fabric region;
//   - every 200 placement is tagged exact or approximate, nothing
//     else;
//   - only the documented failure statuses appear (429/499/500/504),
//     and 429s are retried by the built-in client with backoff.
//
// The run is fully reproducible: workload i is generated from
// -seed + i, and the retry client's jitter is seeded too. Exit status
// is non-zero when any invariant was violated, so `make chaos` and CI
// can gate on it.
//
// With -mode sessions the driver targets the stateful online API
// instead: each worker opens one session, replays a seeded
// arrive/depart/defrag mix, and mirrors every answer onto a
// client-side shadow occupancy revalidated with the same oracle the
// server uses (online.ValidatePlacement). Any divergence — an
// overlapping placement, an unpriced or invalid relocation, a release
// the server and shadow disagree on — is a violation and fails the
// run.
//
// Example (against a daemon started with
// `placed -faults 'solver:timeout:0.3;cache:error:0.2'`):
//
//	loadgen -addr http://localhost:8080 -requests 200 -concurrency 8
//	loadgen -addr http://localhost:8080 -duration 30s   # soak mode
//	loadgen -addr http://localhost:8080 -mode sessions -requests 200
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/service"
)

type cliOpts struct {
	addr        string
	mode        string
	requests    int
	duration    time.Duration
	concurrency int
	seed        int64
	modulesMin  int
	modulesMax  int
	fabric      string
	timeout     time.Duration
	verbose     bool
}

func main() {
	var o cliOpts
	flag.StringVar(&o.addr, "addr", "http://localhost:8080", "base URL of the placed daemon")
	flag.StringVar(&o.mode, "mode", "batch", "workload mode: batch (stateless /v1/place) or sessions (stateful online API)")
	flag.IntVar(&o.requests, "requests", 100, "number of workloads to replay (ignored when -duration is set)")
	flag.DurationVar(&o.duration, "duration", 0, "soak mode: replay workloads for this long instead of a fixed count")
	flag.IntVar(&o.concurrency, "concurrency", 4, "parallel request workers")
	flag.Int64Var(&o.seed, "seed", 1, "base workload seed; request i uses seed+i")
	flag.IntVar(&o.modulesMin, "modules-min", 2, "minimum modules per workload")
	flag.IntVar(&o.modulesMax, "modules-max", 5, "maximum modules per workload")
	flag.StringVar(&o.fabric, "fabric", "spartan-like-24x16", "fabric to place onto")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request client timeout")
	flag.BoolVar(&o.verbose, "v", false, "log each violation as it happens")
	flag.Parse()

	var sum *summary
	var err error
	switch o.mode {
	case "", "batch":
		sum, err = run(o, os.Stdout)
	case "sessions":
		sum, err = runSessions(o, os.Stdout)
	default:
		err = fmt.Errorf("unknown -mode %q (want batch or sessions)", o.mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if sum.Violations > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d invariant violations\n", sum.Violations)
		os.Exit(1)
	}
}

// summary is the machine-readable run report, printed as one JSON
// object on stdout.
type summary struct {
	Requests    int64            `json:"requests"`
	Exact       int64            `json:"exact"`
	Approximate int64            `json:"approximate"`
	Infeasible  int64            `json:"infeasible"`
	Retries     int64            `json:"retries"`
	Statuses    map[string]int64 `json:"statuses"`
	Transport   int64            `json:"transportErrors"`
	Violations  int64            `json:"violations"`
	ElapsedMs   float64          `json:"elapsedMs"`
}

// counters aggregates worker results under one lock.
type counters struct {
	mu  sync.Mutex
	sum summary
	out io.Writer
	vrb bool
}

func (c *counters) violation(seq int64, format string, args ...any) {
	c.mu.Lock()
	c.sum.Violations++
	if c.vrb {
		fmt.Fprintf(c.out, "loadgen: workload %d: VIOLATION: %s\n", seq, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func run(o cliOpts, out io.Writer) (*summary, error) {
	if o.concurrency <= 0 {
		o.concurrency = 1
	}
	if o.modulesMin < 1 {
		o.modulesMin = 1
	}
	if o.modulesMax < o.modulesMin {
		o.modulesMax = o.modulesMin
	}
	if _, err := fabric.ByName(o.fabric); err != nil {
		return nil, err
	}

	c := client.New(o.addr, client.Options{
		Seed:       o.seed,
		HTTPClient: &http.Client{Timeout: o.timeout},
	})
	agg := &counters{out: out, vrb: o.verbose}
	agg.sum.Statuses = map[string]int64{}

	var seq atomic.Int64
	start := time.Now()
	deadline := time.Time{}
	if o.duration > 0 {
		deadline = start.Add(o.duration)
	}
	next := func() (int64, bool) {
		i := seq.Add(1) - 1
		if o.duration > 0 {
			return i, time.Now().Before(deadline)
		}
		return i, i < int64(o.requests)
	}

	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				runOne(c, o, i, agg)
			}
		}()
	}
	wg.Wait()

	agg.sum.ElapsedMs = float64(time.Since(start).Microseconds()) / 1e3
	line, err := json.MarshalIndent(&agg.sum, "", "  ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(line))
	return &agg.sum, nil
}

// workloadBody builds the generate-spec request for workload i: the
// daemon expands the spec deterministically, so the same -seed always
// replays the same instance stream.
func workloadBody(o cliOpts, i int64) string {
	seed := o.seed + i
	span := int64(o.modulesMax - o.modulesMin + 1)
	n := o.modulesMin + int(seed%span+span)%int(span)
	return fmt.Sprintf(`{"fabric":%q,"generate":{"seed":%d,"numModules":%d,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2},"options":{"stallNodes":200,"timeoutMs":5000}}`, o.fabric, seed, n)
}

func runOne(c *client.Client, o cliOpts, i int64, agg *counters) {
	body := workloadBody(o, i)
	res, err := c.Do(context.Background(), "/v1/place", []byte(body))

	agg.mu.Lock()
	agg.sum.Requests++
	if res != nil {
		agg.sum.Retries += int64(res.Retries)
		agg.sum.Statuses[fmt.Sprintf("%d", res.Status)]++
	}
	if err != nil {
		agg.sum.Transport++
	}
	agg.mu.Unlock()
	if err != nil {
		return
	}

	switch res.Status {
	case http.StatusOK:
		checkPlacement(o, i, body, res, agg)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Retries exhausted while shedding persisted: legitimate under
		// sustained overload, not a violation.
	case http.StatusInternalServerError, http.StatusGatewayTimeout:
		// Documented failure modes under fault injection.
	default:
		agg.violation(i, "unexpected status %d: %s", res.Status, res.Body)
	}
}

// checkPlacement enforces the 200 contract: decodable body, a known
// quality tag, and — when a placement was found — every requested
// module placed exactly once with core validity against the request's
// own region.
func checkPlacement(o cliOpts, i int64, reqBody string, res *client.Result, agg *counters) {
	quality := res.Header.Get("X-Placement-Quality")
	if quality != service.QualityExact && quality != service.QualityApproximate {
		agg.violation(i, "X-Placement-Quality %q is neither exact nor approximate", quality)
		return
	}
	var resp service.PlaceResponse
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		agg.violation(i, "200 body does not decode: %v", err)
		return
	}
	if !resp.Found {
		agg.mu.Lock()
		agg.sum.Infeasible++
		agg.mu.Unlock()
		return
	}

	creq, err := service.DecodeRequest(strings.NewReader(reqBody), service.Config{})
	if err != nil {
		agg.violation(i, "replaying request: %v", err)
		return
	}
	dev, err := fabric.ByName(creq.Fabric)
	if err != nil {
		agg.violation(i, "fabric: %v", err)
		return
	}
	region := dev.FullRegion()
	byName := map[string]*module.Module{}
	for _, m := range creq.Modules {
		byName[m.Name()] = m
	}
	rec := &core.Result{
		Found:       true,
		Height:      resp.Height,
		Utilization: resp.Utilization,
	}
	for _, p := range resp.Placements {
		m := byName[p.Module]
		if m == nil {
			agg.violation(i, "placement names unknown or repeated module %q", p.Module)
			return
		}
		delete(byName, p.Module)
		if p.Shape < 0 || p.Shape >= m.NumShapes() {
			agg.violation(i, "module %q uses shape %d of %d", p.Module, p.Shape, m.NumShapes())
			return
		}
		rec.Placements = append(rec.Placements, core.Placement{
			Module:     m,
			ShapeIndex: p.Shape,
			At:         grid.Pt(p.X, p.Y),
		})
	}
	if len(byName) > 0 {
		agg.violation(i, "%d of %d modules left unplaced", len(byName), len(creq.Modules))
		return
	}
	if err := rec.Validate(region); err != nil {
		agg.violation(i, "placement invalid (%s): %v", quality, err)
		return
	}

	agg.mu.Lock()
	if quality == service.QualityApproximate {
		agg.sum.Approximate++
	} else {
		agg.sum.Exact++
	}
	agg.mu.Unlock()
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/service"
)

// startService runs an in-process placement service behind httptest so
// the driver exercises the same handler chain as a live daemon.
func startService(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

func baseOpts(addr string, n int) cliOpts {
	return cliOpts{
		addr:        addr,
		requests:    n,
		concurrency: 4,
		seed:        1,
		modulesMin:  2,
		modulesMax:  4,
		fabric:      "spartan-like-24x16",
		timeout:     30 * time.Second,
	}
}

func TestRunCleanService(t *testing.T) {
	srv := startService(t, service.Config{Workers: 4, MaxInFlight: 64})
	var out bytes.Buffer
	sum, err := run(baseOpts(srv.URL, 12), &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations != 0 {
		t.Fatalf("violations on a clean service: %+v\n%s", sum, out.String())
	}
	if sum.Requests != 12 || sum.Exact+sum.Infeasible != 12 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Approximate != 0 {
		t.Fatalf("approximate placements without fault injection: %+v", sum)
	}
}

// TestRunChaosDegraded is the end-to-end robustness assertion: with
// the solver missing every deadline and degradation on, every
// workload still gets a valid approximate placement.
func TestRunChaosDegraded(t *testing.T) {
	inj, err := faultinject.Parse("solver:timeout:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := startService(t, service.Config{
		Workers:     4,
		MaxInFlight: 64,
		Degrade:     true,
		Faults:      inj,
	})
	var out bytes.Buffer
	sum, err := run(baseOpts(srv.URL, 10), &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations != 0 {
		t.Fatalf("violations under chaos: %+v\n%s", sum, out.String())
	}
	if sum.Exact != 0 {
		t.Fatalf("exact answers despite 100%% solver timeouts: %+v", sum)
	}
	if sum.Approximate+sum.Infeasible != 10 {
		t.Fatalf("summary under chaos: %+v", sum)
	}
}

// TestRunMixedFaults soaks a briefly chaotic service: latency, forced
// cache misses, queue shedding, sporadic solver faults. The contract
// is weaker — some requests legitimately fail — but nothing invalid
// may ever be served.
func TestRunMixedFaults(t *testing.T) {
	spec := "cache:error:0.3;singleflight:error:0.2;queue:error:0.3;solver:timeout:0.3;solver:latency:0.5:5ms"
	inj, err := faultinject.Parse(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	srv := startService(t, service.Config{
		Workers:     4,
		MaxInFlight: 8,
		Degrade:     true,
		Faults:      inj,
	})
	var out bytes.Buffer
	o := baseOpts(srv.URL, 40)
	o.verbose = true
	sum, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations != 0 {
		t.Fatalf("violations under mixed faults: %+v\n%s", sum, out.String())
	}
	if sum.Requests != 40 {
		t.Fatalf("requests = %d, want 40", sum.Requests)
	}
}

func TestRunSoakDuration(t *testing.T) {
	srv := startService(t, service.Config{Workers: 4, MaxInFlight: 64})
	var out bytes.Buffer
	o := baseOpts(srv.URL, 0)
	o.duration = 300 * time.Millisecond
	sum, err := run(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests == 0 {
		t.Fatal("soak mode issued no requests")
	}
	if sum.Violations != 0 {
		t.Fatalf("violations: %+v\n%s", sum, out.String())
	}
}

func TestRunRejectsUnknownFabric(t *testing.T) {
	o := baseOpts("http://unused", 1)
	o.fabric = "no-such-device"
	if _, err := run(o, &bytes.Buffer{}); err == nil {
		t.Fatal("expected an error for an unknown fabric")
	}
}

func TestWorkloadBodyDeterministicAndBounded(t *testing.T) {
	o := baseOpts("http://unused", 0)
	for i := int64(0); i < 20; i++ {
		a, b := workloadBody(o, i), workloadBody(o, i)
		if a != b {
			t.Fatalf("workload %d not deterministic", i)
		}
		var req struct {
			Generate struct {
				NumModules int `json:"numModules"`
			} `json:"generate"`
		}
		if err := json.Unmarshal([]byte(a), &req); err != nil {
			t.Fatal(err)
		}
		if req.Generate.NumModules < o.modulesMin || req.Generate.NumModules > o.modulesMax {
			t.Fatalf("workload %d has %d modules, want [%d,%d]", i, req.Generate.NumModules, o.modulesMin, o.modulesMax)
		}
	}
}

func TestSummaryJSONOnStdout(t *testing.T) {
	srv := startService(t, service.Config{Workers: 2, MaxInFlight: 16})
	var out bytes.Buffer
	if _, err := run(baseOpts(srv.URL, 3), &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	var sum summary
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("stdout is not a JSON summary: %v\n%s", err, out.String())
	}
	if sum.Requests != 3 {
		t.Fatalf("decoded summary: %+v", sum)
	}
}

// TestRunSessionsClean drives the stateful session mode against a
// clean service: every worker's shadow occupancy must stay consistent
// with the server through arrivals, departures and defrag passes.
func TestRunSessionsClean(t *testing.T) {
	srv := startService(t, service.Config{Workers: 4, MaxInFlight: 64})
	var out bytes.Buffer
	o := baseOpts(srv.URL, 60)
	o.mode = "sessions"
	o.verbose = true
	sum, err := runSessions(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations != 0 {
		t.Fatalf("violations on a clean service: %+v\n%s", sum, out.String())
	}
	if sum.Exact == 0 {
		t.Fatalf("no exact placements: %+v", sum)
	}
	if sum.Approximate != 0 {
		t.Fatalf("approximate placements without saturation: %+v", sum)
	}
}

// TestRunSessionsChaos soaks the session path under injected session
// and defrag faults. Faults fire before any session mutation, so the
// client shadow must stay consistent — the run may see 503/504s, but
// never a divergence.
func TestRunSessionsChaos(t *testing.T) {
	spec := "session:error:0.15;session:latency:0.3:2ms;defrag:timeout:0.5"
	inj, err := faultinject.Parse(spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	srv := startService(t, service.Config{Workers: 4, MaxInFlight: 64, Degrade: true, Faults: inj})
	var out bytes.Buffer
	o := baseOpts(srv.URL, 60)
	o.mode = "sessions"
	o.verbose = true
	sum, err := runSessions(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations != 0 {
		t.Fatalf("violations under session chaos: %+v\n%s", sum, out.String())
	}
}

// TestCheckPlacementRejectsRepeatedModule feeds checkPlacement a 200
// answer that places module a twice, on two free CLB tiles, and never
// places b. The tile check alone passes it (the count matches and the
// tiles do not overlap); the answer must still count as a violation,
// not as an exact placement.
func TestCheckPlacementRejectsRepeatedModule(t *testing.T) {
	const fab = "spartan-like-24x16"
	tile := []service.ShapeSpec{{Tiles: []service.TileSpec{{X: 0, Y: 0, Kind: "CLB"}}}}
	req, err := json.Marshal(service.PlaceRequest{
		Fabric:  fab,
		Modules: []service.ModuleSpec{{Name: "a", Shapes: tile}, {Name: "b", Shapes: tile}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fabric.ByName(fab)
	if err != nil {
		t.Fatal(err)
	}
	region := dev.FullRegion()
	occ := grid.NewBitmap(region.W(), region.H())
	resp := service.PlaceResponse{Fabric: fab, Found: true, Height: 1}
	for x := 0; x < region.W() && len(resp.Placements) < 2; x++ {
		if region.KindAt(x, 0) == fabric.CLB {
			occ.Set(x, 0, true)
			resp.Placements = append(resp.Placements, service.PlacementSpec{Module: "a", X: x, W: 1, H: 1})
		}
	}
	resp.Utilization = metrics.Utilization(region, occ)
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	agg := &counters{out: io.Discard}
	res := &client.Result{Status: 200, Body: body, Header: http.Header{"X-Placement-Quality": {service.QualityExact}}}
	checkPlacement(baseOpts("", 1), 0, string(req), res, agg)
	if agg.sum.Violations != 1 || agg.sum.Exact != 0 {
		t.Fatalf("repeated module accepted: %+v", agg.sum)
	}
}

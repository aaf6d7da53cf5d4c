package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/module"
)

// mustInjector parses a fault spec or fails the test.
func mustInjector(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// validatePlacedResponse reconstructs the placements of a 200 response
// against the decoded request and runs the core M_a/M_b/M_c validity
// checks (plus height/utilization agreement) via core.Result.Validate.
func validatePlacedResponse(t *testing.T, reqBody string, respBody []byte) PlaceResponse {
	t.Helper()
	var resp PlaceResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatalf("response does not decode: %v (%s)", err, respBody)
	}
	if !resp.Found {
		return resp
	}
	creq, err := DecodeRequest(strings.NewReader(reqBody), Config{})
	if err != nil {
		t.Fatal(err)
	}
	region, err := regionFor(creq)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*module.Module{}
	for _, m := range creq.Modules {
		byName[m.Name()] = m
	}
	res := &core.Result{
		Found:       true,
		Height:      resp.Height,
		Utilization: resp.Utilization,
	}
	for _, p := range resp.Placements {
		m := byName[p.Module]
		if m == nil {
			t.Fatalf("response places unknown module %q", p.Module)
		}
		if p.Shape < 0 || p.Shape >= m.NumShapes() {
			t.Fatalf("response places %q with shape %d of %d", p.Module, p.Shape, m.NumShapes())
		}
		res.Placements = append(res.Placements, core.Placement{
			Module:     m,
			ShapeIndex: p.Shape,
			At:         grid.Pt(p.X, p.Y),
		})
	}
	if len(res.Placements) != len(creq.Modules) {
		t.Fatalf("response places %d of %d modules", len(res.Placements), len(creq.Modules))
	}
	if err := res.Validate(region); err != nil {
		t.Fatalf("served placement fails validity checks: %v", err)
	}
	return resp
}

// TestDegradeOnInjectedSolverTimeout is the acceptance path: with the
// solver site at a 100% deadline-miss rate and degradation on, a place
// request returns 200 tagged approximate, and the served placement
// passes the core validity checks.
func TestDegradeOnInjectedSolverTimeout(t *testing.T) {
	s := newTestServer(t, Config{
		Degrade: true,
		Faults:  mustInjector(t, "solver:timeout:1"),
	})
	h := s.Handler()
	body := genBody(1, 3)

	rr := post(t, h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded place: status %d body %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Placement-Quality"); got != QualityApproximate {
		t.Fatalf("X-Placement-Quality = %q, want %q", got, QualityApproximate)
	}
	resp := validatePlacedResponse(t, body, rr.Body.Bytes())
	if resp.Quality != QualityApproximate {
		t.Fatalf("body quality = %q, want %q", resp.Quality, QualityApproximate)
	}
	if !resp.Found || len(resp.Placements) != 3 {
		t.Fatalf("degraded response implausible: %+v", resp)
	}
	if resp.Optimal {
		t.Fatal("approximate placement claims optimality")
	}

	st := s.Stats()
	if st.Degraded != 1 || st.Timeouts != 1 {
		t.Fatalf("stats after degradation: degraded=%d timeouts=%d", st.Degraded, st.Timeouts)
	}
	if st.Faults["solver:timeout"] == 0 {
		t.Fatalf("fault fires not reported in stats: %v", st.Faults)
	}
	// Degraded bodies must not be cached: the instance deserves an
	// exact answer once the solver recovers.
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("degraded response was cached (%d entries)", n)
	}
}

// TestDegradedPlacementsValidMetamorphic sweeps seeded workloads
// through the forced-degradation path: every approximate placement
// must satisfy the M_a/M_b/M_c validity checks, whatever the seed.
func TestDegradedPlacementsValidMetamorphic(t *testing.T) {
	s := newTestServer(t, Config{
		Degrade: true,
		Faults:  mustInjector(t, "solver:timeout:1"),
	})
	h := s.Handler()
	for seed := int64(1); seed <= 8; seed++ {
		n := 2 + int(seed)%4
		body := genBody(seed, n)
		rr := post(t, h, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d body %s", seed, rr.Code, rr.Body)
		}
		resp := validatePlacedResponse(t, body, rr.Body.Bytes())
		if resp.Quality != QualityApproximate {
			t.Fatalf("seed %d: quality %q", seed, resp.Quality)
		}
	}
}

// TestDegradeOnShed: a request shed by a full admission queue degrades
// to an approximate placement instead of a 429.
func TestDegradeOnShed(t *testing.T) {
	s := newTestServer(t, Config{
		Degrade: true,
		Faults:  mustInjector(t, "queue:error:1"),
	})
	h := s.Handler()
	body := genBody(1, 2)
	rr := post(t, h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("shed place: status %d body %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Placement-Quality"); got != QualityApproximate {
		t.Fatalf("X-Placement-Quality = %q, want %q", got, QualityApproximate)
	}
	validatePlacedResponse(t, body, rr.Body.Bytes())
	st := s.Stats()
	if st.Rejected != 1 || st.Degraded != 1 {
		t.Fatalf("stats after degraded shed: rejected=%d degraded=%d", st.Rejected, st.Degraded)
	}
}

// TestShedWithoutDegradeKeeps429 pins the seed failure behaviour when
// degradation is off, now with retry guidance for the client.
func TestShedWithoutDegradeKeeps429(t *testing.T) {
	s := newTestServer(t, Config{Faults: mustInjector(t, "queue:error:1")})
	h := s.Handler()
	rr := post(t, h, genBody(1, 2))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
}

// TestSolverTimeoutWithoutDegradeKeeps504 pins the seed failure
// behaviour of a missed solve deadline when degradation is off.
func TestSolverTimeoutWithoutDegradeKeeps504(t *testing.T) {
	s := newTestServer(t, Config{Faults: mustInjector(t, "solver:timeout:1")})
	h := s.Handler()
	rr := post(t, h, genBody(1, 2))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestDegradeFallbackFailureFallsThrough: when the baseline heuristics
// cannot place the instance either, the original failure response
// stands.
func TestDegradeFallbackFailureFallsThrough(t *testing.T) {
	s := newTestServer(t, Config{
		Degrade: true,
		Faults:  mustInjector(t, "solver:timeout:1"),
	})
	s.fallback = func(*canon.Request) (*core.Result, error) {
		return nil, fmt.Errorf("fallback wedged")
	}
	h := s.Handler()
	rr := post(t, h, genBody(1, 2))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 when fallback fails (body %s)", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.Degraded != 0 {
		t.Fatalf("degraded = %d, want 0", st.Degraded)
	}
}

// TestInjectedSolverErrorIs500: an injected solver fault is machinery
// failure, not a client error, and must not be cached.
func TestInjectedSolverErrorIs500(t *testing.T) {
	s := newTestServer(t, Config{Faults: mustInjector(t, "solver:error:1")})
	h := s.Handler()
	rr := post(t, h, genBody(1, 1))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", rr.Code, rr.Body)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("injected error cached (%d entries)", n)
	}
}

// TestInjectedPartialResultNotCached: a partial (stalled, empty)
// result serves as a legitimate found=false answer but must not poison
// the cache for later fault-free requests.
func TestInjectedPartialResultNotCached(t *testing.T) {
	s := newTestServer(t, Config{Faults: mustInjector(t, "solver:partial:1")})
	var solves int
	s.solve = func(*canon.Request) (*core.Result, error) {
		solves++
		return stubResult(1), nil
	}
	h := s.Handler()
	rr := post(t, h, genBody(1, 1))
	if rr.Code != http.StatusOK {
		t.Fatalf("partial place: status %d body %s", rr.Code, rr.Body)
	}
	var resp PlaceResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Found || !resp.Stalled {
		t.Fatalf("partial response: %+v", resp)
	}
	if solves != 0 {
		t.Fatalf("real solve ran %d times despite 100%% partial injection", solves)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("partial result cached (%d entries)", n)
	}
}

// TestCacheFaultForcesMiss: with the cache site erroring, a primed
// entry does not count as a hit, but Join still returns the stored
// body — no duplicate solve, miss semantics.
func TestCacheFaultForcesMiss(t *testing.T) {
	s := newTestServer(t, Config{Faults: mustInjector(t, "cache:error:1")})
	var solves int
	var mu sync.Mutex
	s.solve = func(*canon.Request) (*core.Result, error) {
		mu.Lock()
		solves++
		mu.Unlock()
		return stubResult(3), nil
	}
	h := s.Handler()
	body := genBody(1, 2)
	r1 := post(t, h, body)
	r2 := post(t, h, body)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", r1.Code, r2.Code)
	}
	if got := r2.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("second request with cache fault: X-Cache %q, want miss", got)
	}
	if r1.Body.String() != r2.Body.String() {
		t.Fatal("cache-fault path served a different body")
	}
	if solves != 1 {
		t.Fatalf("solves = %d, want 1 (double-check must still reuse the stored outcome)", solves)
	}
}

// TestCacheFaultCountsNoHit: with the cache site erroring, a repeat of
// a solved generate request is answered as a miss, and no hit is
// counted anywhere — not in /v1/stats, not in the cache section, not in
// /metrics, not in the access log.
func TestCacheFaultCountsNoHit(t *testing.T) {
	var log syncBuffer
	s := newTestServer(t, Config{AccessLog: &log, Faults: mustInjector(t, "cache:error:1")})
	s.solve = func(*canon.Request) (*core.Result, error) { return stubResult(3), nil }
	h := s.Handler()
	body := genBody(1, 2)
	for i := 0; i < 2; i++ {
		if rr := post(t, h, body); rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: status %d X-Cache %q, want a 200 miss", i, rr.Code, rr.Header().Get("X-Cache"))
		}
	}
	var stats struct {
		CacheHits int64          `json:"cacheHits"`
		HitRatio  float64        `json:"hitRatio"`
		Cache     map[string]any `json:"cache"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if hits, ok := stats.Cache["hits"]; stats.CacheHits != 0 || stats.HitRatio != 0 || (ok && hits != 0.0) {
		t.Fatalf("/v1/stats counts a hit under the cache fault: %+v", stats)
	}
	if got := scrape(t, h)["service_cache_hits_total"]; got != "0" {
		t.Fatalf("/metrics service_cache_hits_total = %q, want 0", got)
	}
	if strings.Contains(log.String(), `"cache":"hit"`) {
		t.Fatalf("access log records a hit under the cache fault:\n%s", log.String())
	}
}

// TestSingleflightFaultBypassesDedup: with the dedup layer broken,
// concurrent identical requests each solve solo.
func TestSingleflightFaultBypassesDedup(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:     4,
		MaxInFlight: 16,
		Faults:      mustInjector(t, "singleflight:error:1;cache:error:1"),
	})
	var mu sync.Mutex
	solves := 0
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.solve = func(*canon.Request) (*core.Result, error) {
		mu.Lock()
		solves++
		mu.Unlock()
		entered <- struct{}{}
		<-release
		return stubResult(2), nil
	}
	h := s.Handler()
	body := genBody(1, 2)

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := post(t, h, body)
			if rr.Code != http.StatusOK {
				t.Errorf("status %d body %s", rr.Code, rr.Body)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	close(release)
	wg.Wait()
	if solves != n {
		t.Fatalf("solves = %d, want %d (singleflight bypassed)", solves, n)
	}
}

// TestInjectedLatencySlowsRequest: latency injection on the cache site
// is observable end to end without failing the request.
func TestInjectedLatencySlowsRequest(t *testing.T) {
	s := newTestServer(t, Config{Faults: mustInjector(t, "cache:latency:1:30ms")})
	s.solve = func(*canon.Request) (*core.Result, error) {
		return stubResult(1), nil
	}
	h := s.Handler()
	start := time.Now()
	rr := post(t, h, genBody(1, 1))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("request finished in %v despite 30ms injected latency", elapsed)
	}
}

// TestExactResponseBytesPinned pins the exact-path wire format to the
// pre-degradation encoding: with injection disabled and an exact
// solve, the body carries no quality field and exactly the seed field
// set, so cached bodies stay byte-identical across this change.
func TestExactResponseBytesPinned(t *testing.T) {
	s := newTestServer(t, Config{})
	s.solve = func(*canon.Request) (*core.Result, error) {
		return &core.Result{Found: true, Height: 4, Utilization: 0.5, Optimal: true}, nil
	}
	h := s.Handler()
	body := `{"fabric":"spartan-like-24x16","modules":[{"name":"a","shapes":[{"tiles":[{"x":0,"y":0,"kind":"CLB"}]}]}]}`
	creq, err := DecodeRequest(strings.NewReader(body), Config{})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := creq.Digest()
	if err != nil {
		t.Fatal(err)
	}
	rr := post(t, h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rr.Code, rr.Body)
	}
	want := fmt.Sprintf(`{"digest":"%s","fabric":"spartan-like-24x16","found":true,"height":4,"utilization":0.5,"optimal":true,"stalled":false,"reason":"exhausted","nodes":0,"backtracks":0,"solveMs":0}`+"\n", digest)
	if got := rr.Body.String(); got != want {
		t.Fatalf("exact response body drifted from the seed encoding:\n got %s\nwant %s", got, want)
	}
	if got := rr.Header().Get("X-Placement-Quality"); got != QualityExact {
		t.Fatalf("X-Placement-Quality = %q, want %q", got, QualityExact)
	}
}

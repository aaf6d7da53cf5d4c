package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
)

// genBody builds a small generated-workload request on the homogeneous
// catalog fabric (NoBRAM keeps every module feasible there).
func genBody(seed int64, n int) string {
	return fmt.Sprintf(`{"fabric":"spartan-like-24x16","generate":{"seed":%d,"numModules":%d,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2},"options":{"stallNodes":100,"timeoutMs":5000}}`, seed, n)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	return postCtx(t, h, body, context.Background())
}

func postCtx(t *testing.T, h http.Handler, body string, ctx context.Context) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/place", strings.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func TestPlaceMissThenHit(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := genBody(1, 3)

	r1 := post(t, h, body)
	if r1.Code != http.StatusOK {
		t.Fatalf("first place: status %d body %s", r1.Code, r1.Body)
	}
	if got := r1.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first place: X-Cache = %q, want miss", got)
	}
	r2 := post(t, h, body)
	if r2.Code != http.StatusOK {
		t.Fatalf("second place: status %d body %s", r2.Code, r2.Body)
	}
	if got := r2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second place: X-Cache = %q, want hit", got)
	}
	if r1.Body.String() != r2.Body.String() {
		t.Fatalf("cache hit body differs from original:\n%s\nvs\n%s", r1.Body, r2.Body)
	}
	if d1, d2 := r1.Header().Get("X-Placement-Digest"), r2.Header().Get("X-Placement-Digest"); d1 != d2 || d1 == "" {
		t.Fatalf("digest headers differ or empty: %q vs %q", d1, d2)
	}

	var resp PlaceResponse
	if err := json.Unmarshal(r1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Height <= 0 || len(resp.Placements) != 3 {
		t.Fatalf("implausible placement response: %+v", resp)
	}
	if resp.Digest != r1.Header().Get("X-Placement-Digest") {
		t.Fatalf("body digest %s != header digest %s", resp.Digest, r1.Header().Get("X-Placement-Digest"))
	}

	st := s.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.Solves != 1 {
		t.Fatalf("stats after miss+hit: %+v", st)
	}
	if st.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", st.HitRatio)
	}
}

// TestPlacePermutationHitsCache drives the canonicalization through the
// wire format: the same two modules with module order and shape order
// permuted must be answered from the cache, in the permuted request's
// own order: the same placements, listed b before a, each shape index
// naming the same shape in the reversed shape lists.
func TestPlacePermutationHitsCache(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	shapeA1 := `{"tiles":[{"x":0,"y":0,"kind":"CLB"},{"x":1,"y":0,"kind":"CLB"}]}`
	shapeA2 := `{"tiles":[{"x":0,"y":0,"kind":"CLB"},{"x":0,"y":1,"kind":"CLB"}]}`
	shapeB1 := `{"tiles":[{"x":0,"y":0,"kind":"CLB"},{"x":1,"y":0,"kind":"CLB"},{"x":0,"y":1,"kind":"CLB"}]}`
	shapeB2 := `{"tiles":[{"x":0,"y":0,"kind":"CLB"},{"x":1,"y":0,"kind":"CLB"},{"x":1,"y":1,"kind":"CLB"}]}`
	mk := func(modules string) string {
		return `{"fabric":"spartan-like-24x16","modules":[` + modules + `],"options":{"stallNodes":100}}`
	}
	orig := mk(`{"name":"a","shapes":[` + shapeA1 + `,` + shapeA2 + `]},{"name":"b","shapes":[` + shapeB1 + `,` + shapeB2 + `]}`)
	perm := mk(`{"name":"b","shapes":[` + shapeB2 + `,` + shapeB1 + `]},{"name":"a","shapes":[` + shapeA2 + `,` + shapeA1 + `]}`)

	r1 := post(t, h, orig)
	if r1.Code != http.StatusOK || r1.Header().Get("X-Cache") != "miss" {
		t.Fatalf("original: status %d X-Cache %q body %s", r1.Code, r1.Header().Get("X-Cache"), r1.Body)
	}
	r2 := post(t, h, perm)
	if r2.Code != http.StatusOK {
		t.Fatalf("permuted: status %d body %s", r2.Code, r2.Body)
	}
	if r2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("permuted request missed the cache (X-Cache %q)", r2.Header().Get("X-Cache"))
	}
	var first, second PlaceResponse
	if err := json.Unmarshal(r1.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(r2.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if len(first.Placements) != 2 || len(second.Placements) != 2 {
		t.Fatalf("placements: %d original, %d permuted; want 2 each", len(first.Placements), len(second.Placements))
	}
	mirror := func(p PlacementSpec) PlacementSpec { p.Shape = 1 - p.Shape; return p }
	if second.Placements[0] != mirror(first.Placements[1]) || second.Placements[1] != mirror(first.Placements[0]) {
		t.Fatalf("permuted placements %+v do not mirror the original %+v", second.Placements, first.Placements)
	}
	first.Placements, second.Placements = nil, nil
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("permuted answer header %+v differs from the original %+v", second, first)
	}
}

// TestPlaceWorkersClamped checks the per-request worker count is
// normalised before the digest: a huge value is clamped to GOMAXPROCS
// (served, and sharing the clamped value's cache entry), and 1 folds
// into 0, the sequential search both select.
func TestPlaceWorkersClamped(t *testing.T) {
	withWorkers := func(n int) string {
		return fmt.Sprintf(`{"fabric":"spartan-like-24x16","generate":{"seed":3,"numModules":3,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2},"options":{"stallNodes":100,"timeoutMs":5000,"workers":%d}}`, n)
	}
	s := newTestServer(t, Config{})
	h := s.Handler()
	huge := post(t, h, withWorkers(100000))
	if huge.Code != http.StatusOK || huge.Header().Get("X-Cache") != "miss" {
		t.Fatalf("workers 100000: status %d X-Cache %q body %s", huge.Code, huge.Header().Get("X-Cache"), huge.Body)
	}
	clamped := post(t, h, withWorkers(runtime.GOMAXPROCS(0)))
	if clamped.Code != http.StatusOK || clamped.Header().Get("X-Cache") != "hit" {
		t.Fatalf("workers GOMAXPROCS: status %d X-Cache %q, want a hit on the clamped entry", clamped.Code, clamped.Header().Get("X-Cache"))
	}
	if huge.Body.String() != clamped.Body.String() {
		t.Fatal("clamped request body differs from the huge request's")
	}

	digest := func(n int) canon.Digest {
		t.Helper()
		req, err := DecodeRequest(strings.NewReader(withWorkers(n)), Config{})
		if err != nil {
			t.Fatalf("workers %d: %v", n, err)
		}
		d, err := req.Digest()
		if err != nil {
			t.Fatalf("workers %d: %v", n, err)
		}
		return d
	}
	if digest(0) != digest(1) {
		t.Fatal("workers 0 and 1 digest differently")
	}
}

// stubResult builds an identifiable fake solve outcome.
func stubResult(height int) *core.Result {
	return &core.Result{Found: true, Height: height, Utilization: 0.5, Optimal: true}
}

// TestSingleflightOneSolve issues the same request from many goroutines
// and requires exactly one underlying solve, with every caller served
// the identical body. Run under -race in CI.
func TestSingleflightOneSolve(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxInFlight: 64})
	var solves atomic.Int64
	release := make(chan struct{})
	s.solve = func(*canon.Request) (*core.Result, error) {
		solves.Add(1)
		<-release
		return stubResult(7), nil
	}
	h := s.Handler()
	body := genBody(1, 2)

	const n = 16
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := post(t, h, body)
			if rr.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d body %s", i, rr.Code, rr.Body)
				return
			}
			bodies[i] = rr.Body.String()
		}(i)
	}
	// Let the leader into the stub, give the rest time to pile up
	// behind the leader's flight, then release. Exactly-one-solve holds
	// for any interleaving (stragglers hit the cache), so the timing
	// here only makes the dedup path likely, not the assertion true.
	for solves.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := solves.Load(); got != 1 {
		t.Fatalf("underlying solves = %d, want 1", got)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("goroutine %d got a different body", i)
		}
	}
}

// TestDistinctRequestsDoNotBlock verifies one slow instance cannot
// stall an unrelated one when a worker is free.
func TestDistinctRequestsDoNotBlock(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, MaxInFlight: 8})
	slowEntered := make(chan struct{})
	slowRelease := make(chan struct{})
	s.solve = func(req *canon.Request) (*core.Result, error) {
		if req.Modules[0].Name() == "slow" {
			close(slowEntered)
			<-slowRelease
			return stubResult(1), nil
		}
		return stubResult(2), nil
	}
	h := s.Handler()
	mk := func(name string) string {
		return `{"fabric":"spartan-like-24x16","modules":[{"name":"` + name +
			`","shapes":[{"tiles":[{"x":0,"y":0,"kind":"CLB"}]}]}]}`
	}

	slowDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { slowDone <- post(t, h, mk("slow")) }()
	<-slowEntered

	// The slow solve owns one worker; the fast one must still finish.
	fastDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { fastDone <- post(t, h, mk("fast")) }()
	select {
	case rr := <-fastDone:
		if rr.Code != http.StatusOK {
			t.Fatalf("fast request: status %d body %s", rr.Code, rr.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast request blocked behind unrelated slow solve")
	}
	close(slowRelease)
	if rr := <-slowDone; rr.Code != http.StatusOK {
		t.Fatalf("slow request: status %d body %s", rr.Code, rr.Body)
	}
}

// TestEvictionChurnServesCorrectPlacements hammers a 2-entry cache with
// many distinct instances from concurrent goroutines and checks every
// response is keyed to its own request — eviction must never cross
// wires. Run under -race in CI.
func TestEvictionChurnServesCorrectPlacements(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxInFlight: 256, CacheEntries: 2})
	s.solve = func(req *canon.Request) (*core.Result, error) {
		// Height identifies the instance: module count is the marker.
		return stubResult(len(req.Modules)), nil
	}
	h := s.Handler()

	const goroutines = 8
	const distinct = 6
	const rounds = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := 1 + (g+r)%distinct
				rr := post(t, h, genBody(int64(want), want))
				if rr.Code != http.StatusOK {
					t.Errorf("status %d body %s", rr.Code, rr.Body)
					return
				}
				var resp PlaceResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				if resp.Height != want {
					t.Errorf("wrong-keyed response: height %d for instance %d", resp.Height, want)
					return
				}
				if resp.Digest != rr.Header().Get("X-Placement-Digest") {
					t.Errorf("digest mismatch: body %s header %s", resp.Digest, rr.Header().Get("X-Placement-Digest"))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Cache.Evictions == 0 {
		t.Fatalf("test exercised no evictions (stats %+v)", st)
	}
}

// TestAdmissionBackpressure fills the one-slot queue and expects the
// next distinct request to be shed with 429.
func TestAdmissionBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solve = func(*canon.Request) (*core.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return stubResult(1), nil
	}
	defer close(release)
	h := s.Handler()

	// Distinct module *counts* guarantee distinct canonical instances
	// (same-count draws from different seeds can coincide).
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(t, h, genBody(1, 1)) }()
	<-entered // instance 1 occupies the worker

	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- post(t, h, genBody(2, 2)) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.solveGate.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if rr := post(t, h, genBody(3, 3)); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429 (body %s)", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", st.Rejected)
	}
}

// TestQueuedRequestDeadline expires a client context while its solve
// is stuck behind a busy worker and expects 504.
func TestQueuedRequestDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solve = func(*canon.Request) (*core.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return stubResult(1), nil
	}
	defer close(release)
	h := s.Handler()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(t, h, genBody(1, 1)) }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if rr := postCtx(t, h, genBody(2, 2), ctx); rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued request with expired deadline: status %d, want 504 (body %s)", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts counter = %d, want 1", st.Timeouts)
	}
}

// TestStartedSolveIsNeverThrownAway: the queue grace plus the solve
// timeout bound only the wait for a solver slot. A solve that started
// and outlives that budget still answers 200 and fills the cache.
func TestStartedSolveIsNeverThrownAway(t *testing.T) {
	s := newTestServer(t, Config{QueueGrace: 10 * time.Millisecond})
	s.solve = func(*canon.Request) (*core.Result, error) {
		time.Sleep(100 * time.Millisecond)
		return stubResult(1), nil
	}
	body := `{"fabric":"spartan-like-24x16","generate":{"seed":1,"numModules":1,"clbMin":4,"clbMax":6,"noBram":true},"options":{"timeoutMs":10}}`
	if rr := post(t, s.Handler(), body); rr.Code != http.StatusOK {
		t.Fatalf("slow started solve: status %d body %s, want 200", rr.Code, rr.Body)
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

func TestSolveErrorsAreNotCached(t *testing.T) {
	s := newTestServer(t, Config{})
	var solves atomic.Int64
	s.solve = func(*canon.Request) (*core.Result, error) {
		solves.Add(1)
		return nil, fmt.Errorf("module m00: no feasible position")
	}
	h := s.Handler()
	for i := 0; i < 2; i++ {
		rr := post(t, h, genBody(1, 1))
		if rr.Code != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d, want 422 (body %s)", i, rr.Code, rr.Body)
		}
	}
	if got := solves.Load(); got != 2 {
		t.Fatalf("solves = %d, want 2 (errors must not be cached)", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after errors, want 0", n)
	}
}

func TestInfeasibleInstanceIsCached(t *testing.T) {
	s := newTestServer(t, Config{})
	var solves atomic.Int64
	s.solve = func(*canon.Request) (*core.Result, error) {
		solves.Add(1)
		return &core.Result{Found: false}, nil
	}
	h := s.Handler()
	for i := 0; i < 2; i++ {
		rr := post(t, h, genBody(1, 1))
		if rr.Code != http.StatusOK {
			t.Fatalf("attempt %d: status %d (body %s)", i, rr.Code, rr.Body)
		}
		var resp PlaceResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Found {
			t.Fatal("stub infeasible result reported found")
		}
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("solves = %d, want 1 (infeasible outcomes are cacheable)", got)
	}
}

func TestPlaceBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"bad-json", `{"fabric":`},
		{"unknown-fabric", `{"fabric":"nope","generate":{"seed":1}}`},
		{"unknown-field", `{"fabric":"spartan-like-24x16","generate":{"seed":1},"bogus":1}`},
		{"no-modules", `{"fabric":"spartan-like-24x16"}`},
		{"modules-and-generate", `{"fabric":"spartan-like-24x16","generate":{"seed":1},"modules":[{"name":"a","shapes":[{"tiles":[{"x":0,"y":0,"kind":"CLB"}]}]}]}`},
		{"bad-kind", `{"fabric":"spartan-like-24x16","modules":[{"name":"a","shapes":[{"tiles":[{"x":0,"y":0,"kind":"LUT"}]}]}]}`},
		{"empty-shape", `{"fabric":"spartan-like-24x16","modules":[{"name":"a","shapes":[{"tiles":[]}]}]}`},
		{"dup-module-names", `{"fabric":"spartan-like-24x16","modules":[{"name":"a","shapes":[{"tiles":[{"x":0,"y":0,"kind":"CLB"}]}]},{"name":"a","shapes":[{"tiles":[{"x":0,"y":0,"kind":"CLB"}]}]}]}`},
		{"bad-strategy", `{"fabric":"spartan-like-24x16","generate":{"seed":1},"options":{"strategy":"random"}}`},
		{"bad-value-order", `{"fabric":"spartan-like-24x16","generate":{"seed":1},"options":{"valueOrder":"zigzag"}}`},
		{"negative-timeout", `{"fabric":"spartan-like-24x16","generate":{"seed":1},"options":{"timeoutMs":-5}}`},
		{"bad-region", `{"fabric":"spartan-like-24x16","generate":{"seed":1},"region":{"x":0,"y":0,"w":0,"h":5}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := post(t, h, tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", rr.Code, rr.Body)
			}
			var resp errorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("error body not structured: %s", rr.Body)
			}
		})
	}
}

func TestDefaultOptionsShareCacheEntry(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	implicit := `{"fabric":"spartan-like-24x16","generate":{"seed":1,"numModules":2,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2}}`
	explicit := `{"fabric":"spartan-like-24x16","generate":{"seed":1,"numModules":2,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2},"options":{"timeoutMs":10000,"stallNodes":2000}}`
	r1 := post(t, h, implicit)
	if r1.Code != http.StatusOK {
		t.Fatalf("implicit: status %d body %s", r1.Code, r1.Body)
	}
	r2 := post(t, h, explicit)
	if r2.Code != http.StatusOK || r2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("explicit defaults: status %d X-Cache %q", r2.Code, r2.Header().Get("X-Cache"))
	}
}

func TestHealthzStatsFabrics(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	if rr := get(t, h, "/v1/healthz"); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"ok"`) {
		t.Fatalf("healthz: status %d body %s", rr.Code, rr.Body)
	}
	rr := get(t, h, "/v1/fabrics")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "virtex4-like-72x60") {
		t.Fatalf("fabrics: status %d body %s", rr.Code, rr.Body)
	}
	rr = get(t, h, "/v1/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rr.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.MaxInFlight != 64 || st.Cache.Capacity != 1024 {
		t.Fatalf("defaults not reflected in stats: %+v", st)
	}

	// Method mismatches are rejected by the mux.
	if rr := get(t, h, "/v1/place"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/place: status %d, want 405", rr.Code)
	}
}

// scrape reads GET /metrics into a sample-name -> value map.
func scrape(t *testing.T, h http.Handler) map[string]string {
	t.Helper()
	rr := get(t, h, "/metrics")
	if rr.Code != http.StatusOK || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics: status %d Content-Type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	samples := map[string]string{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name] = val
		}
	}
	return samples
}

// TestMetricsScrape reads the registry live after a miss, a hit and a
// session round trip: GET /metrics must agree with /v1/stats on every
// service counter and carry the solver's per-propagator runs from the
// miss's solve.
func TestMetricsScrape(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := genBody(1, 6)
	for _, want := range []string{"miss", "hit"} {
		if rr := post(t, h, body); rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != want {
			t.Fatalf("place: status %d X-Cache %q, want %s", rr.Code, rr.Header().Get("X-Cache"), want)
		}
	}
	id := createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	if resp, rr := sessionPlace(t, h, id, 1, clbModuleJSON("m", 2, 2)); rr.Code != http.StatusOK || !resp.Placed {
		t.Fatalf("session place: status %d body %s", rr.Code, rr.Body)
	}
	if rr := do(t, h, "POST", "/v1/sessions/"+id+"/defrag", ""); rr.Code != http.StatusOK {
		t.Fatalf("defrag: status %d body %s", rr.Code, rr.Body)
	}
	samples := scrape(t, h)
	st := s.Stats()
	for name, want := range map[string]int64{
		"service_requests_total":         st.Requests,
		"service_cache_hits_total":       st.CacheHits,
		"service_dedup_total":            st.DedupHits,
		"service_solves_total":           st.Solves,
		"service_solve_errors_total":     st.SolveErrors,
		"service_rejected_total":         st.Rejected,
		"service_timeouts_total":         st.Timeouts,
		"service_canceled_total":         st.Canceled,
		"service_degraded_total":         st.Degraded,
		"service_sessions_created_total": st.SessionsCreated,
		"service_sessions_evicted_total": st.SessionsEvicted,
		"service_sessions_expired_total": st.SessionsExpired,
		"service_session_replans_total":  st.SessionReplans,
		"service_session_defrags_total":  st.SessionDefrags,
	} {
		if got := samples[name]; got != fmt.Sprint(want) {
			t.Errorf("/metrics %s = %q, /v1/stats says %d", name, got, want)
		}
	}
	if st.Requests != 5 || st.CacheHits != 1 || st.Solves != 1 || st.SessionsCreated != 1 || st.SessionDefrags != 1 {
		t.Errorf("stats after a miss, a hit and a session round trip: %+v", st)
	}
	if runs := samples[`solver_propagator_runs_total{propagator="geost.non-overlap"}`]; runs == "" || runs == "0" {
		t.Errorf("no non-overlap runs in /metrics: %v", samples)
	}
}

// TestRegionWindowChangesInstance places the same modules on the full
// fabric and on a window and expects distinct cache entries.
func TestRegionWindowChangesInstance(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	full := `{"fabric":"spartan-like-24x16","generate":{"seed":1,"numModules":2,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2},"options":{"stallNodes":100}}`
	windowed := `{"fabric":"spartan-like-24x16","region":{"x":0,"y":0,"w":12,"h":16},"generate":{"seed":1,"numModules":2,"clbMin":4,"clbMax":6,"noBram":true,"alternatives":2},"options":{"stallNodes":100}}`
	r1 := post(t, h, full)
	r2 := post(t, h, windowed)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", r1.Code, r2.Code)
	}
	if r2.Header().Get("X-Cache") != "miss" {
		t.Fatal("windowed request shared the full-fabric cache entry")
	}
	if r1.Header().Get("X-Placement-Digest") == r2.Header().Get("X-Placement-Digest") {
		t.Fatal("digest ignores the region window")
	}
}

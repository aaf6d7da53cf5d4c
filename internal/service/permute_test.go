package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The permuted-order suite: one canonical instance requested with its
// modules and shapes in different orders. Every answer must index the
// shapes of its own request.

const (
	permFabric = "virtex4-like-72x60"
	permOpts   = `{"stallNodes":400,"timeoutMs":20000}`
)

// permGenerate is the smoke request's batch in generate form: six
// modules with four design alternatives each, BRAM-bearing on the
// heterogeneous Table-I fabric, so a shape index read against the
// wrong shape list lands on the wrong box or the wrong resources.
var permGenerate = GenerateSpec{Seed: 1, NumModules: 6, CLBMin: 10, CLBMax: 30, Alternatives: 4}

func permGenerateBody() string {
	g, err := json.Marshal(permGenerate)
	if err != nil {
		panic(err)
	}
	return `{"fabric":"` + permFabric + `","generate":` + string(g) + `,"options":` + permOpts + `}`
}

// permExplicitBody spells permGenerate's batch explicitly, with the
// module order and every module's shape order drawn from seed (seed 0
// keeps the generator's order).
func permExplicitBody(t testing.TB, seed int64) string {
	t.Helper()
	g := permGenerate
	mods := workload.MustGenerate(g.config(), rand.New(rand.NewSource(g.Seed)))
	specs := make([]ModuleSpec, len(mods))
	for i, m := range mods {
		specs[i] = ModuleSpecFor(m)
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
		for _, ms := range specs {
			rng.Shuffle(len(ms.Shapes), func(a, b int) { ms.Shapes[a], ms.Shapes[b] = ms.Shapes[b], ms.Shapes[a] })
		}
	}
	mb, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return `{"fabric":"` + permFabric + `","modules":` + string(mb) + `,"options":` + permOpts + `}`
}

// checkOwnOrder checks a 200 answer against its own request's decode:
// every module placed once, on the shape its index names in that
// request, with that shape's box, every shape passing core.Fit on the
// region without overlap, and the placements listed in the request's
// module order.
func checkOwnOrder(t *testing.T, reqBody string, rr *httptest.ResponseRecorder) PlaceResponse {
	t.Helper()
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rr.Code, rr.Body)
	}
	var resp PlaceResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	creq, err := DecodeRequest(strings.NewReader(reqBody), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || len(resp.Placements) != len(creq.Modules) {
		t.Fatalf("found=%v with %d placements for %d modules", resp.Found, len(resp.Placements), len(creq.Modules))
	}
	region, err := regionFor(creq)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*module.Module, len(creq.Modules))
	for _, m := range creq.Modules {
		byName[m.Name()] = m
	}
	occ := grid.NewBitmap(region.W(), region.H())
	for _, p := range resp.Placements {
		m := byName[p.Module]
		if m == nil {
			t.Fatalf("placement names unknown or repeated module %q", p.Module)
		}
		delete(byName, p.Module)
		if p.Shape < 0 || p.Shape >= m.NumShapes() {
			t.Fatalf("module %s: shape %d of %d", m.Name(), p.Shape, m.NumShapes())
		}
		s := m.Shape(p.Shape)
		if s.W() != p.W || s.H() != p.H {
			t.Fatalf("module %s: %dx%d box reported for its shape %d, which is %dx%d", m.Name(), p.W, p.H, p.Shape, s.W(), s.H())
		}
		if err := core.Fit(region, occ, s, grid.Pt(p.X, p.Y)); err != nil {
			t.Fatalf("module %s shape %d at (%d,%d): %v", m.Name(), p.Shape, p.X, p.Y, err)
		}
		occ.SetPointsAt(s.Points(), grid.Pt(p.X, p.Y), true)
	}
	for i, p := range resp.Placements {
		if want := creq.Modules[i].Name(); p.Module != want {
			t.Fatalf("placement %d is module %s, the request lists %s there", i, p.Module, want)
		}
	}
	return resp
}

// TestPermutedHitsIndexOwnShapes is the metamorphic check behind
// answering in the requester's order: warm the cache with one order,
// then hit it with modules and shapes permuted. Every answer must
// validate against its own request, and a repeat of the warm-up order
// must still be byte-identical.
func TestPermutedHitsIndexOwnShapes(t *testing.T) {
	for _, warm := range []string{"generate", "explicit"} {
		t.Run(warm, func(t *testing.T) {
			s := newTestServer(t, Config{})
			h := s.Handler()
			first := permGenerateBody()
			if warm == "explicit" {
				first = permExplicitBody(t, 0)
			}
			r0 := post(t, h, first)
			if r0.Header().Get("X-Cache") != "miss" {
				t.Fatalf("warm-up: X-Cache %q", r0.Header().Get("X-Cache"))
			}
			want := checkOwnOrder(t, first, r0)
			for seed := int64(1); seed <= 4; seed++ {
				body := permExplicitBody(t, seed)
				rr := post(t, h, body)
				if rr.Header().Get("X-Cache") != "hit" {
					t.Fatalf("permutation %d: X-Cache %q, want hit", seed, rr.Header().Get("X-Cache"))
				}
				got := checkOwnOrder(t, body, rr)
				if got.Digest != want.Digest || got.Height != want.Height {
					t.Fatalf("permutation %d: digest %s height %d, warm-up %s height %d", seed, got.Digest, got.Height, want.Digest, want.Height)
				}
			}
			if again := post(t, h, first); again.Body.String() != r0.Body.String() || again.Header().Get("X-Cache") != "hit" {
				t.Fatalf("warm-up order repeated: X-Cache %q, body differs: %v", again.Header().Get("X-Cache"), again.Body.String() != r0.Body.String())
			}
			if st := s.Stats(); st.Solves != 1 {
				t.Fatalf("solves = %d, want 1", st.Solves)
			}
		})
	}
}

// TestPermutedDedupWaitersIndexOwnShapes holds a real solve at the
// gate while waiters in other module and shape orders join its flight:
// each waiter's answer, and the leader's, must validate against its
// own request.
func TestPermutedDedupWaitersIndexOwnShapes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 8})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	solve := s.solve
	s.solve = func(req *canon.Request) (*core.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return solve(req)
	}
	h := s.Handler()
	bodies := []string{permExplicitBody(t, 0), permGenerateBody()}
	for seed := int64(5); seed <= 8; seed++ {
		bodies = append(bodies, permExplicitBody(t, seed))
	}
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); recs[0] = post(t, h, bodies[0]) }()
	<-entered
	for i := 1; i < len(bodies); i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); recs[i] = post(t, h, bodies[i]) }(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.Stats().Misses < int64(len(bodies)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, rr := range recs {
		checkOwnOrder(t, bodies[i], rr)
	}
	st := s.Stats()
	if st.Solves != 1 || st.DedupHits != int64(len(bodies)-1) {
		t.Fatalf("solves %d dedups %d, want 1 and %d", st.Solves, st.DedupHits, len(bodies)-1)
	}
}

// TestGenerateAliasesExplicitEntry: a generate request whose batch was
// first solved from its explicit spelling is a hit, and so is an
// explicit, permuted spelling of a batch first solved from generate.
// Repeating a generate request answers it before expansion.
func TestGenerateAliasesExplicitEntry(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Tracer: tracer})
	s.solve = func(req *canon.Request) (*core.Result, error) {
		return stubSolve(req), nil
	}
	h := s.Handler()
	gen := func(seed int64) string {
		return fmt.Sprintf(`{"fabric":"spartan-like-24x16","generate":{"seed":%d,"numModules":3,"clbMin":4,"clbMax":9,"noBram":true,"alternatives":3},"options":{"stallNodes":100}}`, seed)
	}
	explicit := func(seed int64, permute int64) string {
		mods := workload.MustGenerate(workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 9, NoBRAM: true, Alternatives: 3}, rand.New(rand.NewSource(seed)))
		specs := make([]ModuleSpec, len(mods))
		for i, m := range mods {
			specs[i] = ModuleSpecFor(m)
		}
		rng := rand.New(rand.NewSource(permute))
		rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
		for _, ms := range specs {
			rng.Shuffle(len(ms.Shapes), func(a, b int) { ms.Shapes[a], ms.Shapes[b] = ms.Shapes[b], ms.Shapes[a] })
		}
		mb, _ := json.Marshal(specs)
		return `{"fabric":"spartan-like-24x16","modules":` + string(mb) + `,"options":{"stallNodes":100}}`
	}
	expanded := func(rr *httptest.ResponseRecorder) string {
		t.Helper()
		sp, ok := spanNames(findTrace(t, h, rr.Header().Get("X-Trace-Id")))["canonicalize"]
		if !ok {
			t.Fatal("no canonicalize span")
		}
		return sp.Attrs["expanded"]
	}
	for _, step := range []struct {
		name, body, cache, expanded string
	}{
		{"explicit-first", explicit(1, 1), "miss", "true"},
		{"generate-after-explicit", gen(1), "hit", "true"},
		{"generate-repeat", gen(1), "hit", "false"},
		{"generate-first", gen(2), "miss", "true"},
		{"generate-repeat-after-miss", gen(2), "hit", "false"},
		{"explicit-permuted-after-generate", explicit(2, 3), "hit", "true"},
	} {
		rr := post(t, h, step.body)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != step.cache {
			t.Fatalf("%s: status %d X-Cache %q, want %s", step.name, rr.Code, rr.Header().Get("X-Cache"), step.cache)
		}
		if got := expanded(rr); got != step.expanded {
			t.Fatalf("%s: canonicalize expanded=%s, want %s", step.name, got, step.expanded)
		}
		resp := checkStubOwnOrder(t, step.body, rr)
		if d := rr.Header().Get("X-Placement-Digest"); resp.Digest != d {
			t.Fatalf("%s: body digest %s, header %s", step.name, resp.Digest, d)
		}
	}
	if st := s.Stats(); st.Solves != 2 || st.CacheHits != 4 {
		t.Fatalf("stats: solves %d hits %d, want 2 and 4", st.Solves, st.CacheHits)
	}
}

// stubSolve places every module's last shape in a column of its own,
// so each shape index and box is checkable without a real solve.
func stubSolve(req *canon.Request) *core.Result {
	res := &core.Result{Found: true}
	x := 0
	for _, m := range req.Modules {
		j := m.NumShapes() - 1
		res.Placements = append(res.Placements, core.Placement{Module: m, ShapeIndex: j, At: grid.Pt(x, 0)})
		x += m.Shape(j).W()
		res.Height = max(res.Height, m.Shape(j).H())
	}
	return res
}

// checkStubOwnOrder checks a stubSolve answer against its own request:
// one placement per module in the request's order, each naming a shape
// of that module whose box matches and which passes core.Fit.
func checkStubOwnOrder(t *testing.T, reqBody string, rr *httptest.ResponseRecorder) PlaceResponse {
	t.Helper()
	var resp PlaceResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	creq, err := DecodeRequest(strings.NewReader(reqBody), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := fabric.ByName(creq.Fabric)
	region := dev.FullRegion()
	if len(resp.Placements) != len(creq.Modules) {
		t.Fatalf("%d placements for %d modules", len(resp.Placements), len(creq.Modules))
	}
	occ := grid.NewBitmap(region.W(), region.H())
	for i, p := range resp.Placements {
		m := creq.Modules[i]
		if p.Module != m.Name() || p.Shape < 0 || p.Shape >= m.NumShapes() {
			t.Fatalf("placement %d (%s shape %d) does not index request module %s", i, p.Module, p.Shape, m.Name())
		}
		s := m.Shape(p.Shape)
		if s.W() != p.W || s.H() != p.H {
			t.Fatalf("module %s: %dx%d box for its %dx%d shape %d", m.Name(), p.W, p.H, s.W(), s.H(), p.Shape)
		}
		if err := core.Fit(region, occ, s, grid.Pt(p.X, p.Y)); err != nil {
			t.Fatalf("module %s: %v", m.Name(), err)
		}
		occ.SetPointsAt(s.Points(), grid.Pt(p.X, p.Y), true)
	}
	return resp
}

package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/workload"
)

// benchRequest is the paper's flagship instance: the seed-1 batch of
// 30 generated modules with four design alternatives on the Table-I
// fabric, solved with the benchmark suite's stall criterion. A
// byte-identical repeat is answered from the front table before the
// body is parsed.
const benchRequest = `{
  "fabric": "virtex4-like-72x60",
  "generate": {"seed": 1},
  "options": {"stallNodes": 800, "timeoutMs": 30000}
}`

// benchExplicitRequest spells benchRequest's batch as explicit tile
// lists. A spelling the front table has not seen pays for the JSON
// decode of every tile, the shape builds and the canonical digest.
func benchExplicitRequest(b testing.TB) string {
	mods := workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1)))
	req := PlaceRequest{Fabric: "virtex4-like-72x60", Options: OptionsSpec{StallNodes: 800, TimeoutMs: 30000}}
	for _, m := range mods {
		req.Modules = append(req.Modules, ModuleSpecFor(m))
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return string(body)
}

func benchServer(b testing.TB) (*Server, http.Handler) {
	b.Helper()
	s := New(Config{Workers: 1, MaxInFlight: 4})
	b.Cleanup(s.Close)
	return s, s.Handler()
}

// benchPlace serves body once and checks the X-Cache outcome. The body
// is read in place, so a benchmark measures the server, not a copy of
// its request.
func benchPlace(b testing.TB, h http.Handler, body []byte, wantCache string) {
	b.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/place", bytes.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("place: status %d body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != wantCache {
		b.Fatalf("X-Cache = %q, want %q", got, wantCache)
	}
}

// unseenSpellings returns a function whose n-th call returns body followed by
// n spaces, which the decoder ignores: one spelling of body per call
// that the front table has not seen, for up to max calls, without
// copying the body.
func unseenSpellings(body []byte, max int) func() []byte {
	padded := append(bytes.Clone(body), bytes.Repeat([]byte{' '}, max)...)
	n := 0
	return func() []byte {
		n++
		return padded[:len(body)+n]
	}
}

// BenchmarkServiceCacheHit measures the full request path when the
// instance is already cached, once per request form. generate and
// explicit repeat one body, answered from the front table: read,
// SHA-256 of the body, front lookup, body write. explicit-first-seen
// sends the explicit body with a new spelling each time, so every hit
// takes the full path: JSON decode, shape builds, canonical digest,
// cache lookup, encoding the answer in the request's order. All warm
// the cache with the generate form. Compare against
// BenchmarkServiceColdSolve for the cache's speedup (EXPERIMENTS.md
// pins the ratio; the acceptance bar is ≥100× on the first-seen path).
func BenchmarkServiceCacheHit(b *testing.B) {
	explicit := []byte(benchExplicitRequest(b))
	for _, tc := range []struct {
		name      string
		body      []byte
		firstSeen bool
	}{
		{"generate", []byte(benchRequest), false},
		{"explicit", explicit, false},
		{"explicit-first-seen", explicit, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, h := benchServer(b)
			benchPlace(b, h, []byte(benchRequest), "miss") // warm the cache
			next := func() []byte { return tc.body }
			if tc.firstSeen {
				next = unseenSpellings(tc.body, b.N)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPlace(b, h, next(), "hit")
			}
		})
	}
}

// explicitHitAllocs bounds the allocations of one explicit hit on
// benchRequest's batch of about 120 shapes in a spelling the front
// table has not seen. It holds only while a shape costs no more than
// the decoder's tile list and the Shape itself; on go1.24 such a hit
// makes about 480.
const explicitHitAllocs = 524

// repeatHitAllocs bounds the allocations of a byte-identical repeat,
// which is answered from the front table before it is parsed; on
// go1.24 one makes about 60, most of them the test's recorder and
// request.
const repeatHitAllocs = 64

// leastAllocs is the least of three testing.AllocsPerRun averages of
// f, so that what other goroutines of the test binary allocate
// meanwhile cannot fail a pin.
func leastAllocs(f func()) float64 {
	got := math.Inf(1)
	for range 3 {
		got = min(got, testing.AllocsPerRun(5, f))
	}
	return got
}

// TestExplicitHitAllocs pins explicitHitAllocs on the full path.
func TestExplicitHitAllocs(t *testing.T) {
	_, h := benchServer(t)
	benchPlace(t, h, []byte(benchRequest), "miss")
	next := unseenSpellings([]byte(benchExplicitRequest(t)), 3*6)
	if got := leastAllocs(func() { benchPlace(t, h, next(), "hit") }); got > explicitHitAllocs {
		t.Fatalf("an explicit hit allocates %.0f times, want at most %d", got, explicitHitAllocs)
	}
}

// TestRepeatHitAllocs pins repeatHitAllocs for both request forms.
func TestRepeatHitAllocs(t *testing.T) {
	_, h := benchServer(t)
	benchPlace(t, h, []byte(benchRequest), "miss")
	for _, body := range []string{benchRequest, benchExplicitRequest(t)} {
		b := []byte(body)
		if got := leastAllocs(func() { benchPlace(t, h, b, "hit") }); got > repeatHitAllocs {
			t.Fatalf("a repeated %d-byte body allocates %.0f times, want at most %d", len(b), got, repeatHitAllocs)
		}
	}
}

// BenchmarkDecodeRequest measures the request decode alone, once per
// request form: the pass over the body and the expansion to a
// canon.Request (shape builds for explicit, workload.Generate for
// generate), without digest, cache or response.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, tc := range []struct{ name, body string }{
		{"generate", benchRequest},
		{"explicit", benchExplicitRequest(b)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			body := []byte(tc.body)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRequest(bytes.NewReader(body), Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceColdSolve measures the same request with the cache
// emptied before each iteration: every request runs a real solve.
func BenchmarkServiceColdSolve(b *testing.B) {
	s, h := benchServer(b)
	body := []byte(benchRequest)
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		benchPlace(b, h, body, "miss")
	}
}

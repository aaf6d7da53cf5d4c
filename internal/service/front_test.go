package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The front-table suite: a byte-identical repeat is answered from the
// front table before its body is parsed, and must be served exactly
// what the full path served its first sighting.

const (
	frontFabric = "spartan-like-24x16"
	frontGen    = `{"seed":1,"numModules":3,"clbMin":4,"clbMax":9,"noBram":true,"alternatives":3}`
)

// frontModules is frontGen's batch as explicit module specs, with the
// module order and every module's shape order drawn from seed (seed 0
// keeps the generator's order).
func frontModules(seed int64) []ModuleSpec {
	mods := workload.MustGenerate(workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 9, NoBRAM: true, Alternatives: 3}, rand.New(rand.NewSource(1)))
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
	return specs
}

// frontExplicit spells frontModules(seed) as encoding/json writes it.
func frontExplicit(t testing.TB, seed int64) string {
	t.Helper()
	mb, err := json.Marshal(frontModules(seed))
	if err != nil {
		t.Fatal(err)
	}
	return `{"fabric":"` + frontFabric + `","modules":` + string(mb) + `,"options":{"stallNodes":100}}`
}

// frontKeyOrder spells frontModules(seed) with every object's keys in
// reverse order, which takes the decoder's general tile path.
func frontKeyOrder(seed int64) string {
	var b strings.Builder
	b.WriteString(`{"options":{"stallNodes":100},"modules":[`)
	for i, m := range frontModules(seed) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"shapes":[`)
		for j, sh := range m.Shapes {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"tiles":[`)
			for k, tl := range sh.Tiles {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"kind":%q,"y":%d,"x":%d}`, tl.Kind, tl.Y, tl.X)
			}
			b.WriteString(`]}`)
		}
		fmt.Fprintf(&b, `],"name":%q}`, m.Name)
	}
	b.WriteString(`],"fabric":"` + frontFabric + `"}`)
	return b.String()
}

// frontServer is a traced server whose solves are stubSolve.
func frontServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, cfg)
	s.solve = func(req *canon.Request, region *fabric.Region) (*core.Result, error) {
		return stubSolve(region, req), nil
	}
	return s, s.Handler()
}

// expandedAttr is the canonicalize span's expanded attribute on rr's
// trace.
func expandedAttr(t *testing.T, h http.Handler, rr *httptest.ResponseRecorder) string {
	t.Helper()
	sp, ok := spanNames(findTrace(t, h, rr.Header().Get("X-Trace-Id")))["canonicalize"]
	if !ok {
		t.Fatal("no canonicalize span")
	}
	return sp.Attrs["expanded"]
}

// checkFrontRepeat posts body twice to h. The first request must take
// the full path (expanded=true) with X-Cache cache, the repeat must be
// a hit answered before parsing (expanded=false), and both must carry
// the same body and X-Placement-Digest, which must be digest. It
// returns the body.
func checkFrontRepeat(t *testing.T, h http.Handler, body, cache, digest string) string {
	t.Helper()
	first := post(t, h, body)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != cache {
		t.Fatalf("first: status %d X-Cache %q, want 200 %s: %s", first.Code, first.Header().Get("X-Cache"), cache, first.Body)
	}
	if got := expandedAttr(t, h, first); got != "true" {
		t.Fatalf("first: canonicalize expanded=%s, want true", got)
	}
	checkStubOwnOrder(t, body, first)
	repeat := post(t, h, body)
	if repeat.Code != http.StatusOK || repeat.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want a 200 hit", repeat.Code, repeat.Header().Get("X-Cache"))
	}
	if got := expandedAttr(t, h, repeat); got != "false" {
		t.Fatalf("repeat: canonicalize expanded=%s, want false", got)
	}
	if !bytes.Equal(first.Body.Bytes(), repeat.Body.Bytes()) {
		t.Fatalf("repeat body differs from the full path's:\n%s\n%s", first.Body, repeat.Body)
	}
	for _, rr := range []*httptest.ResponseRecorder{first, repeat} {
		if got := rr.Header().Get("X-Placement-Digest"); got != digest {
			t.Fatalf("X-Placement-Digest %s, want %s", got, digest)
		}
	}
	return first.Body.String()
}

// frontDigest is the canonical digest of frontGen's instance.
func frontDigest(t testing.TB) string {
	t.Helper()
	creq, err := DecodeRequest(strings.NewReader(frontExplicit(t, 0)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := creq.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d.String()
}

// TestFrontHitMatchesFullPath is the differential test of the front
// table: every spelling of one instance, generate and explicit, in
// other module and shape orders, spaced out or with its keys
// reordered, is served by the full path on its first sighting and by
// the front table on its repeat, with byte-identical bodies and
// digests.
func TestFrontHitMatchesFullPath(t *testing.T) {
	s, h := frontServer(t, Config{})
	digest := frontDigest(t)
	indented, err := json.MarshalIndent(json.RawMessage(frontExplicit(t, 2)), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	spellings := []struct{ name, body string }{
		{"generate", `{"fabric":"` + frontFabric + `","generate":` + frontGen + `,"options":{"stallNodes":100}}`},
		{"generate-respelled", "{ \"options\" : {\"stallNodes\": 100},\n \"generate\": {\"noBram\": true, \"alternatives\": 3, \"clbMax\": 9, \"clbMin\": 4, \"numModules\": 3, \"seed\": 1, \"dspMax\": 0},\n \"fabric\": \"" + frontFabric + "\" }"},
		{"explicit", frontExplicit(t, 0)},
		{"explicit-permuted", frontExplicit(t, 1)},
		{"explicit-indented", string(indented)},
		{"explicit-key-order", frontKeyOrder(3)},
	}
	for i, sp := range spellings {
		cache := "hit"
		if i == 0 {
			cache = "miss"
		}
		t.Run(sp.name, func(t *testing.T) { checkFrontRepeat(t, h, sp.body, cache, digest) })
	}
	if st := s.Stats(); st.Solves != 1 {
		t.Fatalf("solves = %d, want 1", st.Solves)
	}
}

// respellJSON rewrites a compact JSON body without changing what it
// decodes to: after each '{', '[', ',' and ':' outside a string it
// inserts the whitespace ws names, cycling through it, and dup in
// 1..2 opens the object with a key that the body's own key of the same
// name then overwrites. Strings in body hold no escapes.
func respellJSON(body string, ws []byte, dup uint8) string {
	var b strings.Builder
	spaces := []string{"", " ", "\n", "\t", "\r\n  "}
	in, n := false, 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		b.WriteByte(c)
		if i == 0 && c == '{' {
			switch dup % 3 {
			case 1:
				b.WriteString(`"fabric":"xc-unknown",`)
			case 2:
				b.WriteString(`"options":{"stallNodes":7},`)
			}
		}
		switch {
		case c == '"':
			in = !in
		case !in && strings.IndexByte("{[,:", c) >= 0 && len(ws) > 0:
			b.WriteString(spaces[int(ws[n%len(ws)])%len(spaces)])
			n++
		}
	}
	return b.String()
}

// FuzzFrontKey mutates one stub-solved request's spelling, its module
// and shape order (seed), its whitespace (ws) and a duplicated key
// (dup), and requires on a fresh server that the first request takes
// the full path and its repeat is served the same body and digest from
// the front table.
func FuzzFrontKey(f *testing.F) {
	f.Add(int64(0), []byte{}, uint8(0))
	f.Add(int64(1), []byte{1}, uint8(1))
	f.Add(int64(5), []byte{2, 0, 4, 3}, uint8(2))
	digest := frontDigest(f)
	f.Fuzz(func(t *testing.T, seed int64, ws []byte, dup uint8) {
		_, h := frontServer(t, Config{})
		checkFrontRepeat(t, h, respellJSON(frontExplicit(t, seed), ws, dup), "miss", digest)
	})
}

// TestCacheFaultBypassesFrontTable: with the cache site erroring on
// every request, a byte-identical repeat of an explicit and of a
// generate body is answered as a miss through the full path, never from
// the front table, and a malformed body is still a 400. The fault is
// drawn once per request whose body was read, the malformed one
// included.
func TestCacheFaultBypassesFrontTable(t *testing.T) {
	s, h := frontServer(t, Config{Faults: mustInjector(t, "cache:error:1")})
	for _, body := range []string{frontExplicit(t, 0), genBody(1, 2)} {
		r1 := post(t, h, body)
		r2 := post(t, h, body)
		for i, rr := range []*httptest.ResponseRecorder{r1, r2} {
			if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
				t.Fatalf("request %d: status %d X-Cache %q, want a 200 miss", i, rr.Code, rr.Header().Get("X-Cache"))
			}
			if got := expandedAttr(t, h, rr); got != "true" {
				t.Fatalf("request %d: canonicalize expanded=%s under the cache fault, want true", i, got)
			}
		}
		if r1.Body.String() != r2.Body.String() {
			t.Fatal("cache-fault repeat served a different body")
		}
	}
	if rr := post(t, h, `{"fabric":`); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", rr.Code)
	}
	if got := s.faults.Stats()["cache:error"]; got != 5 {
		t.Fatalf("cache fault drawn %d times for 5 read bodies", got)
	}
	if st := s.Stats(); st.Solves != 2 || st.CacheHits != 0 {
		t.Fatalf("solves %d hits %d, want 2 and 0", st.Solves, st.CacheHits)
	}
}

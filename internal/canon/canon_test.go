package canon

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// testModules draws a small reproducible batch with alternatives.
func testModules(t testing.TB, seed int64, n int) []*module.Module {
	t.Helper()
	mods, err := workload.Generate(workload.Config{
		NumModules: n, CLBMin: 4, CLBMax: 9, BRAMMax: 1, Alternatives: 3,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return mods
}

func testRequest(t testing.TB) *Request {
	t.Helper()
	return &Request{
		Fabric:  "virtex4-like-72x60",
		Modules: testModules(t, 1, 5),
		Options: core.RequestOptions{StallNodes: 500, BusRows: []int{4, 2, 4}},
	}
}

func digestOf(t testing.TB, r *Request) Digest {
	t.Helper()
	d, err := r.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestDeterministic(t *testing.T) {
	r := testRequest(t)
	if d1, d2 := digestOf(t, r), digestOf(t, r); d1 != d2 {
		t.Fatalf("same request digested twice: %s != %s", d1, d2)
	}
	// An independently built identical request digests identically.
	if d1, d2 := digestOf(t, testRequest(t)), digestOf(t, r); d1 != d2 {
		t.Fatalf("identical requests digest differently: %s != %s", d1, d2)
	}
}

func TestDigestModuleOrderInvariant(t *testing.T) {
	r := testRequest(t)
	want := digestOf(t, r)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		p := &Request{Fabric: r.Fabric, Region: r.Region, Options: r.Options}
		p.Modules = append([]*module.Module(nil), r.Modules...)
		rng.Shuffle(len(p.Modules), func(i, j int) {
			p.Modules[i], p.Modules[j] = p.Modules[j], p.Modules[i]
		})
		if got := digestOf(t, p); got != want {
			t.Fatalf("trial %d: module permutation changed digest: %s != %s", trial, got, want)
		}
		if !Equal(r, p) {
			t.Fatalf("trial %d: permuted request not canonically equal", trial)
		}
	}
}

func TestDigestShapeOrderInvariant(t *testing.T) {
	r := testRequest(t)
	want := digestOf(t, r)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		p := &Request{Fabric: r.Fabric, Region: r.Region, Options: r.Options}
		for _, m := range r.Modules {
			idx := rng.Perm(m.NumShapes())
			pm, err := m.WithShapes(idx...)
			if err != nil {
				t.Fatal(err)
			}
			p.Modules = append(p.Modules, pm)
		}
		if got := digestOf(t, p); got != want {
			t.Fatalf("trial %d: shape permutation changed digest: %s != %s", trial, got, want)
		}
	}
}

func TestDigestBusRowNormalization(t *testing.T) {
	r := testRequest(t)
	p := testRequest(t)
	p.Options.BusRows = []int{2, 4} // sorted, deduped variant of {4, 2, 4}
	if digestOf(t, r) != digestOf(t, p) {
		t.Fatal("bus-row order/duplicates changed digest")
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := testRequest(t)
	want := digestOf(t, base)
	mutate := []struct {
		name string
		mut  func(*Request)
	}{
		{"fabric", func(r *Request) { r.Fabric = "virtex5-like-96x80" }},
		{"region", func(r *Request) { r.Region = grid.RectXYWH(0, 0, 40, 40) }},
		{"timeout", func(r *Request) { r.Options.Timeout = time.Second }},
		{"strategy", func(r *Request) { r.Options.Strategy = core.StrategyLargestFirst }},
		{"value-order", func(r *Request) { r.Options.ValueOrder = core.OrderLexicographic }},
		{"first-only", func(r *Request) { r.Options.FirstSolutionOnly = true }},
		{"stall", func(r *Request) { r.Options.StallNodes = 501 }},
		{"bus-rows", func(r *Request) { r.Options.BusRows = []int{2, 4, 6} }},
		{"workers", func(r *Request) { r.Options.Workers = 4 }},
		{"strong-prop", func(r *Request) { r.Options.StrongPropagation = true }},
		{"presolve", func(r *Request) { r.Options.Presolve = core.PresolveOff }},
		{"module-dropped", func(r *Request) { r.Modules = r.Modules[:len(r.Modules)-1] }},
		{"module-renamed", func(r *Request) {
			m := r.Modules[0]
			renamed, err := module.NewModule("zz", m.Shapes()...)
			if err != nil {
				t.Fatal(err)
			}
			r.Modules = append([]*module.Module{renamed}, r.Modules[1:]...)
		}},
		{"shape-dropped", func(r *Request) {
			m, err := r.Modules[0].WithShapes(0)
			if err != nil {
				t.Fatal(err)
			}
			r.Modules = append([]*module.Module{m}, r.Modules[1:]...)
		}},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			r := testRequest(t)
			tc.mut(r)
			if got := digestOf(t, r); got == want {
				t.Fatalf("mutation %q left digest unchanged", tc.name)
			}
			if Equal(base, r) {
				t.Fatalf("mutation %q left requests canonically equal", tc.name)
			}
		})
	}
}

func TestCanonicalRejects(t *testing.T) {
	mods := testModules(t, 1, 2)
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"empty-fabric", Request{Modules: mods}},
		{"no-modules", Request{Fabric: "f"}},
		{"nil-module", Request{Fabric: "f", Modules: []*module.Module{nil}}},
		{"dup-names", Request{Fabric: "f", Modules: []*module.Module{mods[0], mods[0]}}},
		{"bad-options", Request{Fabric: "f", Modules: mods,
			Options: core.RequestOptions{Workers: -1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.req.Canonical(); err == nil {
				t.Fatal("want error, got nil")
			}
			if _, err := tc.req.Digest(); err == nil {
				t.Fatal("Digest: want error, got nil")
			}
		})
	}
}

func TestCanonicalDoesNotMutateInput(t *testing.T) {
	r := testRequest(t)
	origFirst := r.Modules[0]
	origRows := append([]int(nil), r.Options.BusRows...)
	if _, err := r.Canonical(); err != nil {
		t.Fatal(err)
	}
	if r.Modules[0] != origFirst {
		t.Fatal("Canonical reordered the input module slice")
	}
	for i, v := range origRows {
		if r.Options.BusRows[i] != v {
			t.Fatal("Canonical mutated the input bus rows")
		}
	}
}

func TestCanonicalOrdering(t *testing.T) {
	r := testRequest(t)
	c, err := r.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c.Modules); i++ {
		if c.Modules[i-1].Name() >= c.Modules[i].Name() {
			t.Fatalf("canonical modules not strictly name-sorted at %d", i)
		}
	}
	for _, m := range c.Modules {
		for i := 1; i < m.NumShapes(); i++ {
			if m.Shape(i-1).Key() >= m.Shape(i).Key() {
				t.Fatalf("canonical shapes of %s not strictly key-sorted at %d", m.Name(), i)
			}
		}
	}
}

// Canonical returns the normalised copy of the request: shapes within
// each module sorted by their geometric key, modules sorted by name,
// bus rows sorted and deduplicated. The receiver is not modified. It
// rejects what order rejects. The tests use it as the oracle of the
// canonical instance that Key's Order describes.
func (r *Request) Canonical() (*Request, error) {
	o, _, err := r.order()
	if err != nil {
		return nil, err
	}
	out := &Request{Fabric: r.Fabric, Region: r.Region, Options: r.Options}
	out.Options.BusRows = sortedUniqueInts(r.Options.BusRows)
	out.Modules = make([]*module.Module, len(o.Modules))
	for c, i := range o.Modules {
		m := r.Modules[i]
		shapes := make([]*module.Shape, len(o.Shapes[c]))
		for k, j := range o.Shapes[c] {
			shapes[k] = m.Shape(j)
		}
		if out.Modules[c], err = module.NewModule(m.Name(), shapes...); err != nil {
			return nil, fmt.Errorf("canon: module %s: %w", m.Name(), err)
		}
	}
	return out, nil
}

// CanonicalBytes returns the injective byte encoding of the canonical
// form of the request. Two requests are canonically equal iff their
// CanonicalBytes are equal; Digest hashes exactly these bytes.
func (r *Request) CanonicalBytes() ([]byte, error) {
	o, ks, err := r.order()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	r.writeEncoding(&b, o, ks)
	return b.Bytes(), nil
}

// Equal reports whether a and b are canonically equal. It returns false
// (never an error) if either request has no canonical form.
func Equal(a, b *Request) bool {
	ab, err := a.CanonicalBytes()
	if err != nil {
		return false
	}
	bb, err := b.CanonicalBytes()
	if err != nil {
		return false
	}
	return string(ab) == string(bb)
}

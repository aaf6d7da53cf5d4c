package canon

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// TestDigestPinned pins the canonical digest of the paper's seed-1
// Table-I batch and of testRequest: shape keys and the frame layout
// feed every cache key, so neither may drift without an encVersion
// bump.
func TestDigestPinned(t *testing.T) {
	table1 := &Request{
		Fabric:  "virtex4-like-72x60",
		Modules: workload.MustGenerate(workload.Config{}, rand.New(rand.NewSource(1))),
		Options: core.RequestOptions{Timeout: 10 * time.Second, StallNodes: 2000},
	}
	for _, tc := range []struct {
		name string
		req  *Request
		want string
	}{
		{"table1-seed1", table1, "d0602fbfc6fe27cf53aa7ee58aa86e2d66ff122a14bf683aa36d431e25b4152f"},
		{"test-request", testRequest(t), "de524ab85ecb09e6580781d607be9cf3fbd4c04c39f309bcb39807fc29e6bbd6"},
	} {
		if got := digestOf(t, tc.req).String(); got != tc.want {
			t.Errorf("%s: digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestKeyOrderLeadsBackToRequest permutes modules and shapes and
// checks that Key agrees with Digest and that its Order names, for
// every canonical module and shape, the request's own module and shape
// at that position.
func TestKeyOrderLeadsBackToRequest(t *testing.T) {
	base := testRequest(t)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		perm := &Request{Fabric: base.Fabric, Options: base.Options}
		for _, i := range rng.Perm(len(base.Modules)) {
			m := base.Modules[i]
			shapes := append([]*module.Shape(nil), m.Shapes()...)
			rng.Shuffle(len(shapes), func(a, b int) { shapes[a], shapes[b] = shapes[b], shapes[a] })
			pm, err := module.NewModule(m.Name(), shapes...)
			if err != nil {
				t.Fatal(err)
			}
			perm.Modules = append(perm.Modules, pm)
		}
		d, o, err := perm.Key()
		if err != nil {
			t.Fatal(err)
		}
		if d != digestOf(t, base) {
			t.Fatalf("trial %d: Key digest differs from the unpermuted Digest", trial)
		}
		c, err := perm.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		for ci, cm := range c.Modules {
			rm := perm.Modules[o.Modules[ci]]
			if rm.Name() != cm.Name() {
				t.Fatalf("trial %d: canonical module %d is %s, Order names %s", trial, ci, cm.Name(), rm.Name())
			}
			for k, s := range cm.Shapes() {
				if !rm.Shape(o.Shapes[ci][k]).Equal(s) {
					t.Fatalf("trial %d: module %s canonical shape %d maps to a different request shape", trial, cm.Name(), k)
				}
			}
		}
	}
}

func TestSpecDigest(t *testing.T) {
	base := Spec{
		Fabric:   "spartan-like-24x16",
		Generate: workload.Config{NumModules: 3, CLBMin: 4, CLBMax: 6, NoBRAM: true},
		Seed:     1,
		Options:  core.RequestOptions{StallNodes: 100, BusRows: []int{3, 1}},
	}
	d0 := base.Digest()
	same := base
	same.Generate.Alternatives = 4 // the default, spelled out
	same.Options.BusRows = []int{1, 3, 3}
	if same.Digest() != d0 {
		t.Fatal("spelled-out defaults or bus-row order changed the spec digest")
	}
	for name, mut := range map[string]func(*Spec){
		"fabric":     func(s *Spec) { s.Fabric = "virtex4-like-72x60" },
		"region":     func(s *Spec) { s.Region = grid.RectXYWH(0, 0, 8, 8) },
		"seed":       func(s *Spec) { s.Seed = 2 },
		"numModules": func(s *Spec) { s.Generate.NumModules = 4 },
		"clbMax":     func(s *Spec) { s.Generate.CLBMax = 7 },
		"noBram":     func(s *Spec) { s.Generate.NoBRAM = false },
		"dspMax":     func(s *Spec) { s.Generate.DSPMax = 1 },
		"alts":       func(s *Spec) { s.Generate.Alternatives = 2 },
		"noRotation": func(s *Spec) { s.Generate.NoRotation = true },
		"stall":      func(s *Spec) { s.Options.StallNodes = 101 },
		"busRows":    func(s *Spec) { s.Options.BusRows = []int{1} },
	} {
		s := base
		mut(&s)
		if s.Digest() == d0 {
			t.Errorf("%s does not change the spec digest", name)
		}
	}
	// Spec.Digest frames every workload.Config field by hand; a new
	// field must be framed there before this count moves.
	if n := reflect.TypeOf(workload.Config{}).NumField(); n != 9 {
		t.Fatalf("workload.Config has %d fields; frame the new ones in Spec.Digest", n)
	}
	// A spec never shares a digest with the canonical form of its batch.
	req := &Request{Fabric: base.Fabric, Modules: workload.MustGenerate(base.Generate, rand.New(rand.NewSource(base.Seed))), Options: base.Options}
	if digestOf(t, req) == d0 {
		t.Fatal("spec digest aliases the canonical digest")
	}
}

package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
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

// refKey is the digest as it was computed from stored string keys,
// kept as the reference FuzzDigestMatchesStringKeys holds Key to: each
// shape's Key() string, modules and shapes sorted with strings.Compare,
// and the whole frame built in one buffer with appendString before it
// is hashed. r must be valid.
func refKey(r *Request) (Digest, Order) {
	sorted := func(n int, key func(int) string) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return strings.Compare(key(a), key(b)) })
		return idx
	}
	o := Order{Modules: sorted(len(r.Modules), func(i int) string { return r.Modules[i].Name() })}
	b := []byte{encVersion}
	b = appendString(b, r.Fabric)
	b = appendRect(b, r.Region)
	b = binary.AppendUvarint(b, uint64(len(o.Modules)))
	for _, i := range o.Modules {
		m := r.Modules[i]
		shapes := sorted(m.NumShapes(), func(j int) string { return m.Shape(j).Key() })
		o.Shapes = append(o.Shapes, shapes)
		b = appendString(b, m.Name())
		b = binary.AppendUvarint(b, uint64(len(shapes)))
		for _, j := range shapes {
			b = appendString(b, m.Shape(j).Key())
		}
	}
	opts := r.Options
	opts.BusRows = sortedUniqueInts(opts.BusRows)
	return sha256.Sum256(appendOptions(b, opts)), o
}

// FuzzDigestMatchesStringKeys holds Key, which renders every shape key
// once into one buffer, sorts with bytes.Compare and streams the frame
// into the hash, to refKey on random requests. Tile coordinates are
// drawn around the digit-count steps 9→10 and 99→100, where the two key
// orders would first part if they differed, kinds are mixed, and a
// request may exceed writeEncoding's flush size.
func FuzzDigestMatchesStringKeys(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(6))
	f.Add(int64(2), uint8(1), uint8(4), uint8(40))
	f.Add(int64(3), uint8(12), uint8(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nMods, nShapes, nTiles uint8) {
		rng := rand.New(rand.NewSource(seed))
		coords := []int{0, 1, 8, 9, 10, 11, 19, 20, 98, 99, 100, 101, 109, 110}
		kinds := []fabric.Kind{fabric.CLB, fabric.BRAM, fabric.DSP}
		req := &Request{Fabric: "f", Options: core.RequestOptions{BusRows: []int{3, 1}}}
		for i := 0; i < 1+int(nMods%16); i++ {
			var shapes []*module.Shape
			for j := 0; j < 1+int(nShapes%6); j++ {
				var tiles []module.Tile
				seen := map[grid.Point]bool{}
				for k := 0; k < 1+int(nTiles); k++ {
					p := grid.Pt(coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))])
					if !seen[p] {
						seen[p] = true
						tiles = append(tiles, module.Tile{At: p, Kind: kinds[rng.Intn(len(kinds))]})
					}
				}
				shapes = append(shapes, module.MustShape(tiles))
			}
			m, err := module.NewModule(string(rune('a'+rng.Intn(26)))+string(rune('a'+i)), shapes...)
			if err != nil {
				t.Fatal(err)
			}
			req.Modules = append(req.Modules, m)
		}
		d, o, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		wantD, wantO := refKey(req)
		if d != wantD {
			t.Fatalf("digest %s, string-key reference %s", d, wantD)
		}
		if !reflect.DeepEqual(o, wantO) {
			t.Fatalf("order %v, string-key reference %v", o, wantO)
		}
	})
}

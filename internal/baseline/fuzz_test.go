package baseline

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// fuzzBarModule builds a module with horizontal and vertical bar
// alternatives, the shape class that exercises UseAlternatives.
func fuzzBarModule(name string, n int) *module.Module {
	var hTiles, vTiles []module.Tile
	for i := 0; i < n; i++ {
		hTiles = append(hTiles, module.Tile{At: grid.Pt(i, 0), Kind: fabric.CLB})
		vTiles = append(vTiles, module.Tile{At: grid.Pt(0, i), Kind: fabric.CLB})
	}
	m, err := module.NewModule(name, module.MustShape(hTiles), module.MustShape(vTiles))
	if err != nil {
		panic(err)
	}
	return m
}

func fuzzRectModule(name string, w, h int) *module.Module {
	var tiles []module.Tile
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tiles = append(tiles, module.Tile{At: grid.Pt(x, y), Kind: fabric.CLB})
		}
	}
	m, err := module.NewModule(name, module.MustShape(tiles))
	if err != nil {
		panic(err)
	}
	return m
}

// FuzzBaselineValid is the heuristic twin of core's FuzzPlacementValid,
// and the safety net under the service's graceful-degradation path:
// whatever instance a degraded request hands the baseline placers, ANY
// placement they return must satisfy the paper's M_a (in bounds,
// resource-compatible), M_b (region shape) and M_c (non-overlap)
// checks via Result.Validate. The fuzz input decodes to a region size,
// a module mix, one of the four algorithms, and the alternatives knob.
func FuzzBaselineValid(f *testing.F) {
	f.Add([]byte{12, 10, 3, 0, 1, 2, 1, 3, 0, 1, 4})
	f.Add([]byte{8, 16, 2, 1, 0, 0, 2, 3})
	f.Add([]byte{20, 8, 4, 2, 1, 1, 1, 2, 2, 0, 3, 1, 5})
	f.Add([]byte{10, 10, 2, 3, 1, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		w := 8 + int(data[0])%13 // 8..20
		h := 8 + int(data[1])%13 // 8..20
		nMods := 1 + int(data[2])%4
		alg := Algorithm(data[3] % 4)
		useAlts := data[4]%2 == 1
		region := fabric.Homogeneous(w, h).FullRegion()

		var mods []*module.Module
		idx := 5
		for m := 0; m < nMods; m++ {
			if idx >= len(data) {
				break
			}
			b := data[idx]
			idx++
			name := fmt.Sprintf("m%d", m)
			if b%3 == 0 {
				n := 2 + int(b/3)%4 // 2..5
				mods = append(mods, fuzzBarModule(name, n))
			} else {
				mw := 1 + int(b)%3    // 1..3
				mh := 1 + int(b/16)%3 // 1..3
				mods = append(mods, fuzzRectModule(name, mw, mh))
			}
		}
		if len(mods) == 0 {
			return
		}

		res, err := Place(region, mods, alg, Options{
			UseAlternatives: useAlts,
			Seed:            int64(data[0]),
			Iterations:      200, // keep annealing inputs fast
		})
		if err != nil {
			// Candidate-construction rejections (a module that fits
			// nowhere) are legitimate outcomes, not soundness failures.
			return
		}
		if !res.Found {
			return
		}
		if err := res.Validate(region); err != nil {
			t.Fatalf("%v (useAlts=%v) returned an invalid placement: %v", alg, useAlts, err)
		}
		// The reported height must cover every placed tile.
		occ := res.Occupancy(region)
		for y := res.Height; y < h; y++ {
			for x := 0; x < w; x++ {
				if occ.Get(x, y) {
					t.Fatalf("%v: tile (%d,%d) occupied above reported height %d", alg, x, y, res.Height)
				}
			}
		}
		if !useAlts {
			// Without alternatives every placement must use shape 0.
			for _, p := range res.Placements {
				if p.ShapeIndex != 0 {
					t.Fatalf("%v placed %s with shape %d despite UseAlternatives=false", alg, p.Module.Name(), p.ShapeIndex)
				}
			}
		}
	})
}

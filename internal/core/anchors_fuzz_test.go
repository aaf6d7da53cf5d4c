package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// anchorTiles encodes the tiles of s as FuzzValidAnchors reads them:
// one (dx, dy, kind) triple per tile.
func anchorTiles(s *module.Shape) []byte {
	var out []byte
	for _, t := range s.Tiles() {
		out = append(out, byte(t.At.X), byte(t.At.Y), byte(t.Kind))
	}
	return out
}

// FuzzValidAnchors is the differential test of the anchor table: on a
// random window of a catalog device and a random shape, the bitmap
// AnchorTable.Anchors computes must equal a per-anchor Fits scan on an
// empty fabric, at every anchor of the window and one tile around it.
//
// The window is (x0, y0, w, h) reduced into the device. The shape is
// tiles, read as (dx, dy, kind) triples with dx < 128 and dy < 96, so
// shapes can be wider than one 64-bit word, straddle a word boundary,
// or be larger than the window. A kind byte of 3 or more takes the
// region's own kind under the tile (CLB where that is not placeable),
// so shapes cut from the fabric have anchors to find. The corpus is
// seeded with every shape of the Table-I seed-1 instance on the
// Table-I region, plus wide, boundary and oversized shapes.
func FuzzValidAnchors(f *testing.F) {
	catalog := fabric.Catalog()
	devIndex := func(name string) byte { return byte(slices.Index(catalog, name)) }

	tableI := devIndex(experiments.TableIRegion().Device().Name())
	mods := workload.MustGenerate(workload.Config{NumModules: 30}, rand.New(rand.NewSource(1)))
	for _, m := range mods {
		for _, s := range m.Shapes() {
			f.Add(tableI, byte(0), byte(0), byte(71), byte(59), anchorTiles(s))
		}
	}
	wide := devIndex("virtex5-like-96x80")
	f.Add(wide, byte(0), byte(0), byte(95), byte(79), []byte{0, 0, 3, 70, 0, 3, 35, 1, 3})  // 71 columns wide
	f.Add(wide, byte(0), byte(0), byte(95), byte(79), []byte{63, 0, 0, 64, 0, 0, 64, 1, 0}) // across the word boundary
	f.Add(wide, byte(0), byte(0), byte(95), byte(79), []byte{0, 0, 0, 0, 1, 0})             // one anchor per column
	f.Add(wide, byte(10), byte(5), byte(20), byte(7), []byte{0, 0, 0, 30, 0, 0})            // wider than the window
	f.Add(devIndex("spartan-like-24x16"), byte(3), byte(2), byte(9), byte(4), []byte{0, 0, 0, 0, 9, 0})

	f.Fuzz(func(t *testing.T, dev, x0, y0, w, h byte, tiles []byte) {
		d, err := fabric.ByName(catalog[int(dev)%len(catalog)])
		if err != nil {
			t.Fatal(err)
		}
		rx, ry := int(x0)%d.W(), int(y0)%d.H()
		rw, rh := 1+int(w)%(d.W()-rx), 1+int(h)%(d.H()-ry)
		r := d.Region(grid.RectXYWH(rx, ry, rw, rh))

		var ts []module.Tile
		for i := 0; i+2 < len(tiles) && len(ts) < 64; i += 3 {
			at := grid.Pt(int(tiles[i])%128, int(tiles[i+1])%96)
			k := fabric.Kind(tiles[i+2])
			if !k.Placeable() {
				if k = r.KindAt(at.X, at.Y); !k.Placeable() {
					k = fabric.CLB
				}
			}
			ts = append(ts, module.Tile{At: at, Kind: k})
		}
		s, err := module.NewShape(ts)
		if err != nil {
			return // no tiles, or a duplicate coordinate
		}

		got := core.NewAnchorTable(r).Anchors(s)
		for y := -1; y <= r.H(); y++ {
			for x := -1; x <= r.W(); x++ {
				if want := core.Fits(r, nil, s, grid.Pt(x, y)); got.Get(x, y) != want {
					t.Fatalf("%dx%d window at (%d,%d) of %s, shape %dx%d: anchor (%d,%d) table %v, Fits %v",
						rw, rh, rx, ry, d.Name(), s.W(), s.H(), x, y, got.Get(x, y), want)
				}
			}
		}
	})
}

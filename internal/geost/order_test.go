package geost

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/csp"
	"repro/internal/grid"
)

// sortedBottomLeft is the reference bottom-left order: the domain's
// values sorted by (y, x, shape), decoded with / and %.
func sortedBottomLeft(k *Kernel, dom *csp.Domain) []int {
	vals := dom.AppendValues(nil)
	key := func(v int) (y, x, sid int) { return (v / k.w) % k.h, v % k.w, v / k.w / k.h }
	slices.SortFunc(vals, func(a, b int) int {
		ya, xa, sa := key(a)
		yb, xb, sb := key(b)
		switch {
		case ya != yb:
			return ya - yb
		case xa != xb:
			return xa - xb
		}
		return sa - sb
	})
	return vals
}

// checkValueOrder builds a random object on a random kernel (widths on
// both sides of 64, up to eight shapes of different heights) and a
// random domain over its values — sparse or dense, with whole rows
// emptied — and compares AppendBottomLeft with the sorted reference.
func checkValueOrder(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	w, h := 1+r.Intn(150), 1+r.Intn(40)
	k := New(csp.NewStore(), w, h)
	shapes := make([]ShapeGeom, 1+r.Intn(8))
	for i := range shapes {
		shapes[i] = rectGeom(1+r.Intn(min(w, 5)), 1+r.Intn(h), w, h)
	}
	o, err := k.AddObject("o", shapes)
	if err != nil {
		t.Fatal(err)
	}
	density := r.Intn(101)
	empty := make([]bool, h)
	for y := range empty {
		empty[y] = r.Intn(4) == 0
	}
	dom := o.Place.Domain().Clone()
	top := dom.Max()
	dom.FilterIn(math.MinInt, math.MaxInt, func(v int) bool {
		_, _, y := o.Decode(v)
		return !empty[y] && r.Intn(100) < density
	})
	if dom.Empty() {
		dom = o.Place.Domain().Clone()
		dom.FilterIn(math.MinInt, math.MaxInt, func(v int) bool { return v == top })
	}
	want := sortedBottomLeft(k, dom)
	prefix := []int{-1}
	got := o.AppendBottomLeft(prefix, dom)
	if got[0] != -1 || !slices.Equal(got[1:], want) {
		t.Fatalf("seed %d (%dx%d, %d shapes): walk %v, sorted %v", seed, w, h, len(shapes), got, want)
	}
}

func FuzzValueOrder(f *testing.F) {
	for seed := int64(0); seed < 300; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkValueOrder(t, seed) })
}

// TestDecodeExact pins the multiply-high Decode to / and % for every
// value of every kernel from 1x1 to 130x130 with eight shapes (fewer
// shapes use a prefix of these values), and Value to its inverse. The
// values are counted in (shape, y, x) order, so the quotients and
// remainders Decode must return are the loop counters.
func TestDecodeExact(t *testing.T) {
	const shapes = 8
	for w := 1; w <= 130; w++ {
		for h := 1; h <= 130; h++ {
			o := &Object{k: New(csp.NewStore(), w, h)}
			v := 0
			for sid := 0; sid < shapes; sid++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						if s, dx, dy := o.Decode(v); s != sid || dx != x || dy != y || o.Value(sid, x, y) != v {
							t.Fatalf("%dx%d: Decode(%d) = (%d, %d, %d), want (%d, %d, %d)", w, h, v, s, dx, dy, sid, x, y)
						}
						v++
					}
				}
			}
		}
	}
}

// TestDividerTop checks the reciprocal division at the top of its
// range, dividends just below 2³², and that AddObject refuses an
// object whose values would pass it.
func TestDividerTop(t *testing.T) {
	for _, d := range []int{1, 2, 3, 7, 64, 130, 1000, 65535, 65536, 1<<31 - 1, 1 << 31, math.MaxUint32} {
		dv := newDivider(d)
		for n := math.MaxUint32; n > math.MaxUint32-5000; n-- {
			if q, r := dv.divmod(n); q != n/d || r != n%d {
				t.Fatalf("%d / %d: got (%d, %d)", n, d, q, r)
			}
		}
	}
	k := New(csp.NewStore(), 1<<11, 1<<11)
	if _, err := k.AddObject("big", make([]ShapeGeom, 1<<10+1)); err == nil {
		t.Fatal("AddObject accepted values past 2^32")
	}
}

// TestShapePointsMustAscend checks AddObject rejects shape points out
// of canonical (y, x) order, which presolve's merge walks rely on.
func TestShapePointsMustAscend(t *testing.T) {
	g := rectGeom(2, 2, 4, 4)
	g.Points = []grid.Point{grid.Pt(1, 0), grid.Pt(0, 0), grid.Pt(0, 1), grid.Pt(1, 1)}
	if _, err := New(csp.NewStore(), 4, 4).AddObject("o", []ShapeGeom{g}); err == nil {
		t.Fatal("AddObject accepted unordered shape points")
	}
}

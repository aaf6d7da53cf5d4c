package grid

import (
	"sort"
	"testing"
	"testing/quick"
)

// tile is the one-tile rectangle at p.
func tile(p Point) Rect { return RectXYWH(p.X, p.Y, 1, 1) }

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, -2)
	q := Pt(-1, 5)
	if got := p.Add(q); got != Pt(2, 3) {
		t.Errorf("Add = %v, want (2,3)", got)
	}
	if got := p.Sub(q); got != Pt(4, -7) {
		t.Errorf("Sub = %v, want (4,-7)", got)
	}
}

func TestPointAddSubRoundTrip(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a := Pt(int(ax), int(ay))
		b := Pt(int(bx), int(by))
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortPointsCanonicalOrder(t *testing.T) {
	ps := []Point{{2, 1}, {0, 0}, {1, 1}, {5, 0}}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
	want := []Point{{0, 0}, {5, 0}, {1, 1}, {2, 1}}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("sorted by Less = %v, want %v", ps, want)
		}
	}
}

func TestBoundsOf(t *testing.T) {
	if got := BoundsOf(nil); !got.Empty() {
		t.Errorf("BoundsOf(nil) = %v, want empty", got)
	}
	ps := []Point{{1, 2}, {4, 0}, {3, 5}}
	got := BoundsOf(ps)
	want := Rect{MinX: 1, MinY: 0, MaxX: 5, MaxY: 6}
	if got != want {
		t.Errorf("BoundsOf = %v, want %v", got, want)
	}
	for _, p := range ps {
		if !got.Contains(tile(p)) {
			t.Errorf("point %v not in its own bounds %v", p, got)
		}
	}
}

func TestBoundsOfContainsAll(t *testing.T) {
	f := func(raw []struct{ X, Y int8 }) bool {
		ps := make([]Point, len(ps2pts(raw)))
		copy(ps, ps2pts(raw))
		b := BoundsOf(ps)
		for _, p := range ps {
			if !b.Contains(tile(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func ps2pts(raw []struct{ X, Y int8 }) []Point {
	ps := make([]Point, len(raw))
	for i, r := range raw {
		ps[i] = Pt(int(r.X), int(r.Y))
	}
	return ps
}

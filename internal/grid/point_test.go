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

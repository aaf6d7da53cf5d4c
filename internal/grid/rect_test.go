package grid

import (
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := RectXYWH(2, 3, 4, 5)
	if r.W() != 4 || r.H() != 5 || r.Area() != 20 {
		t.Fatalf("W/H/Area = %d/%d/%d, want 4/5/20", r.W(), r.H(), r.Area())
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	e := RectXYWH(0, 0, 0, 3)
	if !e.Empty() || e.Area() != 0 || e.W() != 0 {
		t.Fatalf("empty rect misbehaves: %v area=%d", e, e.Area())
	}
	neg := RectXYWH(0, 0, -2, 3)
	if !neg.Empty() || neg.Area() != 0 {
		t.Fatalf("negative rect not empty: %v", neg)
	}
}

func TestRectIntersect(t *testing.T) {
	a := RectXYWH(0, 0, 4, 4)
	b := RectXYWH(2, 2, 4, 4)
	got := a.Intersect(b)
	want := RectXYWH(2, 2, 2, 2)
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	c := RectXYWH(10, 10, 2, 2)
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersect not empty")
	}
}

func TestRectOverlapsContains(t *testing.T) {
	a := RectXYWH(0, 0, 4, 4)
	if !a.Overlaps(RectXYWH(3, 3, 4, 4)) {
		t.Error("corner overlap missed")
	}
	if a.Overlaps(RectXYWH(4, 0, 2, 2)) {
		t.Error("touching rects should not overlap (half-open)")
	}
	if !a.Contains(RectXYWH(1, 1, 2, 2)) {
		t.Error("Contains inner failed")
	}
	if a.Contains(RectXYWH(3, 3, 2, 2)) {
		t.Error("Contains overflow accepted")
	}
	if !a.Contains(Rect{}) {
		t.Error("empty rect must be contained everywhere")
	}
}

// Property: intersection is the set of tiles present in both rects.
func TestRectIntersectPointwise(t *testing.T) {
	f := func(ax, ay, bx, by int8, aw, ah, bw, bh uint8) bool {
		a := RectXYWH(int(ax), int(ay), int(aw)%10, int(ah)%10)
		b := RectXYWH(int(bx), int(by), int(bw)%10, int(bh)%10)
		in := a.Intersect(b)
		for _, p := range a.Points() {
			if b.Contains(tile(p)) != in.Contains(tile(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Overlaps agrees with non-emptiness of Intersect.
func TestRectOverlapsAgreesWithIntersect(t *testing.T) {
	f := func(ax, ay, bx, by int8, aw, ah, bw, bh uint8) bool {
		a := RectXYWH(int(ax), int(ay), int(aw)%12, int(ah)%12)
		b := RectXYWH(int(bx), int(by), int(bw)%12, int(bh)%12)
		return a.Overlaps(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectPoints(t *testing.T) {
	r := RectXYWH(1, 1, 2, 2)
	ps := r.Points()
	want := []Point{{1, 1}, {2, 1}, {1, 2}, {2, 2}}
	if len(ps) != len(want) {
		t.Fatalf("Points len = %d, want %d", len(ps), len(want))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("Points = %v, want %v", ps, want)
		}
	}
	if (Rect{}).Points() != nil {
		t.Error("empty rect Points should be nil")
	}
}

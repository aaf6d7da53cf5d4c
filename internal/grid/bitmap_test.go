package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(70, 3) // spans two words per row
	if b.W() != 70 || b.H() != 3 {
		t.Fatalf("dimensions = %dx%d", b.W(), b.H())
	}
	b.Set(0, 0, true)
	b.Set(69, 2, true)
	b.Set(64, 1, true)
	if !b.Get(0, 0) || !b.Get(69, 2) || !b.Get(64, 1) {
		t.Fatal("set bits not readable")
	}
	if b.Get(1, 0) || b.Get(63, 1) {
		t.Fatal("unset bits read as set")
	}
	b.Set(64, 1, false)
	if b.Get(64, 1) {
		t.Fatal("clear failed")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(4, 4)
	b.Set(-1, 0, true)
	b.Set(0, -1, true)
	b.Set(4, 0, true)
	b.Set(0, 4, true)
	if b.Count() != 0 {
		t.Fatal("out-of-range Set modified bitmap")
	}
	if b.Get(-1, -1) || b.Get(4, 4) {
		t.Fatal("out-of-range Get returned true")
	}
}

func TestBitmapNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitmap(-1, 2) did not panic")
		}
	}()
	NewBitmap(-1, 2)
}

func TestBitmapSetRectClipped(t *testing.T) {
	b := NewBitmap(5, 5)
	b.SetRect(RectXYWH(3, 3, 10, 10), true)
	if b.Count() != 4 {
		t.Fatalf("clipped SetRect count = %d, want 4", b.Count())
	}
	b.SetRect(RectXYWH(3, 3, 1, 1), false)
	if b.Get(3, 3) || b.Count() != 3 {
		t.Fatal("SetRect clear failed")
	}
}

func TestBitmapAnyAt(t *testing.T) {
	b := NewBitmap(8, 8)
	b.Set(4, 4, true)
	shape := []Point{{0, 0}, {1, 0}, {0, 1}}
	if !b.AnyAt(shape, Pt(4, 4)) {
		t.Error("AnyAt should hit (4,4)")
	}
	if !b.AnyAt(shape, Pt(3, 4)) {
		t.Error("AnyAt should hit via (1,0) offset")
	}
	if b.AnyAt(shape, Pt(5, 5)) {
		t.Error("AnyAt false positive")
	}
	if b.AnyAt(shape, Pt(-10, -10)) {
		t.Error("AnyAt out of range should be false")
	}
}

// TestBitmapRow64 checks the row read on a 72-wide bitmap, two words
// per row: a read that straddles the 64-bit boundary, reads that start
// at or past the width, and rows outside the bitmap.
func TestBitmapRow64(t *testing.T) {
	b := NewBitmap(72, 4)
	for _, x := range []int{0, 5, 62, 63, 64, 65, 71} {
		b.Set(x, 2, true)
	}
	for _, tc := range []struct {
		x, y int
		want uint64
	}{
		{0, 2, 1<<0 | 1<<5 | 1<<62 | 1<<63},
		{60, 2, 1<<2 | 1<<3 | 1<<4 | 1<<5 | 1<<11},
		{64, 2, 1<<0 | 1<<1 | 1<<7},
		{71, 2, 1},
		{72, 2, 0},
		{200, 2, 0},
		{-3, 2, 1<<3 | 1<<8},
		{-64, 2, 0},
		{0, 1, 0},
		{0, -1, 0},
		{0, 4, 0},
	} {
		if got := b.Row64(tc.x, tc.y); got != tc.want {
			t.Errorf("Row64(%d, %d) = %#x, want %#x", tc.x, tc.y, got, tc.want)
		}
	}
}

// TestBitmapRow64MatchesGet checks every bit of every row read against
// Get on random bitmaps, one and two words per row.
func TestBitmapRow64MatchesGet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 63, 64, 65, 72, 130} {
		b := NewBitmap(w, 3)
		for y := 0; y < 3; y++ {
			for x := 0; x < w; x++ {
				b.Set(x, y, r.Intn(2) == 0)
			}
		}
		for y := -1; y <= 3; y++ {
			for x := -66; x <= w+1; x++ {
				got := b.Row64(x, y)
				for i := 0; i < 64; i++ {
					if want := b.Get(x+i, y); (got>>uint(i)&1 == 1) != want {
						t.Fatalf("w=%d: Row64(%d, %d) bit %d = %v, Get(%d, %d) = %v",
							w, x, y, i, !want, x+i, y, want)
					}
				}
			}
		}
	}
}

// TestBitmapOrRow64MatchesSet checks OrRow64 against one Set per bit
// on random words, one and two words per row, at every offset in and
// around the row: it sets exactly the bits Set would, drops the bits
// outside the bitmap, and leaves the rest of the bitmap as it was.
func TestBitmapOrRow64MatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, w := range []int{1, 63, 64, 65, 72, 130} {
		for y := -1; y <= 3; y++ {
			for x := -66; x <= w+1; x++ {
				got, want := NewBitmap(w, 3), NewBitmap(w, 3)
				for i := 0; i < w; i++ {
					on := r.Intn(4) == 0
					got.Set(i, 1, on)
					want.Set(i, 1, on)
				}
				v := r.Uint64()
				got.OrRow64(x, y, v)
				for i := 0; i < 64; i++ {
					if v>>uint(i)&1 == 1 {
						want.Set(x+i, y, true)
					}
				}
				if got.String() != want.String() || got.Count() != want.Count() {
					t.Fatalf("w=%d: OrRow64(%d, %d, %#x) =\n%v\nwant\n%v", w, x, y, v, got, want)
				}
			}
		}
	}
}

// TestBitmapClearRow64MatchesSet checks ClearRow64 against one clearing
// Set per bit, on bitmaps with random bits in every row, at the offsets
// TestBitmapOrRow64MatchesSet uses: it clears exactly the bits Set
// would, ignores the bits outside the bitmap, and leaves the rest of the
// bitmap as it was.
func TestBitmapClearRow64MatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 63, 64, 65, 72, 130} {
		for y := -1; y <= 3; y++ {
			for x := -66; x <= w+1; x++ {
				got, want := NewBitmap(w, 3), NewBitmap(w, 3)
				for row := 0; row < 3; row++ {
					for i := 0; i < w; i++ {
						on := r.Intn(2) == 0
						got.Set(i, row, on)
						want.Set(i, row, on)
					}
				}
				v := r.Uint64()
				got.ClearRow64(x, y, v)
				for i := 0; i < 64; i++ {
					if v>>uint(i)&1 == 1 {
						want.Set(x+i, y, false)
					}
				}
				if got.String() != want.String() || got.Count() != want.Count() {
					t.Fatalf("w=%d: ClearRow64(%d, %d, %#x) =\n%v\nwant\n%v", w, x, y, v, got, want)
				}
			}
		}
	}
}

func TestBitmapBooleanOps(t *testing.T) {
	a := NewBitmap(10, 2)
	b := NewBitmap(10, 2)
	a.Set(1, 0, true)
	a.Set(2, 1, true)
	b.Set(2, 1, true)
	a.AndNot(b)
	if a.Get(2, 1) || a.Count() != 1 {
		t.Fatal("AndNot failed")
	}
	a.Set(2, 1, true)
	a.And(b)
	if !a.Get(2, 1) || a.Count() != 1 {
		t.Fatal("And failed")
	}
}

func TestBitmapSetPointsAt(t *testing.T) {
	shape := []Point{{0, 0}, {1, 0}, {0, 2}}
	b := NewBitmap(70, 4)
	b.SetPointsAt(shape, Pt(63, 1), true)
	want := NewBitmap(70, 4)
	for _, p := range shape {
		want.Set(p.X+63, p.Y+1, true)
	}
	if b.String() != want.String() {
		t.Fatalf("SetPointsAt painted\n%s\nwant\n%s", b, want)
	}
	if !b.AnyAt(shape, Pt(63, 1)) {
		t.Fatal("AnyAt misses what SetPointsAt painted")
	}
	b.SetPointsAt(shape, Pt(69, 3), true) // only (69,3) lands inside
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4 (clipped)", b.Count())
	}
	b.SetPointsAt(shape, Pt(63, 1), false)
	b.SetPointsAt(shape, Pt(69, 3), false)
	if b.Count() != 0 {
		t.Fatal("unpainting left bits set")
	}
}

func TestBitmapExtent(t *testing.T) {
	b := NewBitmap(130, 5)
	if got := b.Extent(); got != (Rect{}) {
		t.Fatalf("empty extent = %v", got)
	}
	for _, p := range []Point{{64, 1}, {3, 3}, {127, 2}} {
		b.Set(p.X, p.Y, true)
		// Reference: the bounds of the set bits, read cell by cell.
		want := Rect{MinX: b.W(), MinY: b.H()}
		for y := 0; y < b.H(); y++ {
			for x := 0; x < b.W(); x++ {
				if b.Get(x, y) {
					want = Rect{MinX: min(want.MinX, x), MinY: min(want.MinY, y), MaxX: max(want.MaxX, x+1), MaxY: max(want.MaxY, y+1)}
				}
			}
		}
		if got := b.Extent(); got != want {
			t.Fatalf("after %v: extent %v, want %v", p, got, want)
		}
	}
}

func TestBitmapDimensionMismatchPanics(t *testing.T) {
	a := NewBitmap(4, 4)
	b := NewBitmap(5, 4)
	for name, f := range map[string]func(){
		"And":    func() { a.And(b) },
		"AndNot": func() { a.AndNot(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBitmapMaxSetY(t *testing.T) {
	b := NewBitmap(6, 6)
	if b.MaxSetY() != -1 {
		t.Fatal("empty MaxSetY != -1")
	}
	b.Set(2, 0, true)
	b.Set(5, 3, true)
	if got := b.MaxSetY(); got != 3 {
		t.Fatalf("MaxSetY = %d, want 3", got)
	}
}

func TestBitmapCloneIndependent(t *testing.T) {
	a := NewBitmap(8, 8)
	a.Set(3, 3, true)
	c := a.Clone()
	c.Set(4, 4, true)
	if a.Get(4, 4) {
		t.Fatal("Clone aliases original")
	}
	a.Clear()
	if !c.Get(3, 3) {
		t.Fatal("Clear leaked into clone")
	}
}

func TestBitmapString(t *testing.T) {
	b := NewBitmap(3, 2)
	b.Set(0, 0, true)
	b.Set(2, 1, true)
	want := "..#\n#.."
	if got := b.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// Property: Count equals the number of distinct set points.
func TestBitmapCountMatchesSetPoints(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(16, 16)
		seen := map[Point]bool{}
		for i := 0; i < int(n); i++ {
			p := Pt(rng.Intn(16), rng.Intn(16))
			b.Set(p.X, p.Y, true)
			seen[p] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package grid

import (
	"math/bits"
	"strings"
)

// Bitmap is a dense 2D bit matrix over a w×h tile window anchored at
// (0, 0). It is the occupancy structure used by placers and by the geost
// kernel's sweep: a set bit marks an occupied (or forbidden) tile.
//
// Rows are stored as packed 64-bit words so that row-wise operations
// (shifted AND for collision tests, OR for placement) run a word at a
// time.
type Bitmap struct {
	w, h  int
	wpr   int // words per row
	words []uint64
}

// NewBitmap returns an all-zero bitmap of the given size. It panics if
// either dimension is negative.
func NewBitmap(w, h int) *Bitmap {
	if w < 0 || h < 0 {
		panic("grid: negative bitmap dimension")
	}
	wpr := (w + 63) / 64
	return &Bitmap{w: w, h: h, wpr: wpr, words: make([]uint64, wpr*h)}
}

// W returns the bitmap width in tiles.
func (b *Bitmap) W() int { return b.w }

// H returns the bitmap height in tiles.
func (b *Bitmap) H() int { return b.h }

// Bounds returns the rectangle [0,w)×[0,h).
func (b *Bitmap) Bounds() Rect { return Rect{0, 0, b.w, b.h} }

func (b *Bitmap) index(x, y int) (word int, bit uint) {
	return y*b.wpr + x>>6, uint(x & 63)
}

// Get reports the bit at (x, y); out-of-range coordinates read as false.
func (b *Bitmap) Get(x, y int) bool {
	if x < 0 || y < 0 || x >= b.w || y >= b.h {
		return false
	}
	w, bit := b.index(x, y)
	return b.words[w]&(1<<bit) != 0
}

// Set writes the bit at (x, y); out-of-range coordinates are ignored.
func (b *Bitmap) Set(x, y int, v bool) {
	if x < 0 || y < 0 || x >= b.w || y >= b.h {
		return
	}
	w, bit := b.index(x, y)
	if v {
		b.words[w] |= 1 << bit
	} else {
		b.words[w] &^= 1 << bit
	}
}

// SetRect sets every bit of r (clipped to the bitmap) to v.
func (b *Bitmap) SetRect(r Rect, v bool) {
	r = r.Intersect(b.Bounds())
	for y := r.MinY; y < r.MaxY; y++ {
		for x := r.MinX; x < r.MaxX; x++ {
			b.Set(x, y, v)
		}
	}
}

// SetPoints sets the bit at each point (clipped) to v.
func (b *Bitmap) SetPoints(ps []Point, v bool) {
	for _, p := range ps {
		b.Set(p.X, p.Y, v)
	}
}

// SetPointsAt sets the bit at each point of ps, translated by at, to v;
// points landing outside the bitmap are ignored. It is the painting
// counterpart of AnyAt and, unlike SetPoints over Translate, allocates
// nothing.
func (b *Bitmap) SetPointsAt(ps []Point, at Point, v bool) {
	for _, p := range ps {
		b.Set(p.X+at.X, p.Y+at.Y, v)
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of b.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{w: b.w, h: b.h, wpr: b.wpr, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// Clear zeroes every bit.
func (b *Bitmap) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Row64 returns the 64 bits of row y that start at column x: bit i of
// the result is the bit at (x+i, y). Columns and rows outside the
// bitmap read as clear. It lets a caller test a whole shape row with
// one AND instead of one Get per tile.
func (b *Bitmap) Row64(x, y int) uint64 {
	if y < 0 || y >= b.h || x >= b.w || x <= -64 {
		return 0
	}
	if x < 0 {
		return b.Row64(0, y) << uint(-x)
	}
	row := b.words[y*b.wpr : (y+1)*b.wpr]
	i, s := x>>6, uint(x&63)
	v := row[i] >> s
	if s != 0 && i+1 < len(row) {
		v |= row[i+1] << (64 - s)
	}
	return v
}

// OrRow64 sets the bits of row y that v marks, the counterpart of
// Row64: bit i of v sets the bit at (x+i, y). Bits that fall outside
// the bitmap are dropped.
func (b *Bitmap) OrRow64(x, y int, v uint64) {
	if row, i, lo, hi := b.rowSpan(x, y, v); row != nil {
		row[i] |= lo
		if hi != 0 {
			row[i+1] |= hi
		}
	}
}

// ClearRow64 clears the bits of row y that v marks: bit i of v clears
// the bit at (x+i, y). Bits that fall outside the bitmap are ignored.
func (b *Bitmap) ClearRow64(x, y int, v uint64) {
	if row, i, lo, hi := b.rowSpan(x, y, v); row != nil {
		row[i] &^= lo
		if hi != 0 {
			row[i+1] &^= hi
		}
	}
}

// rowSpan clips v, 64 bits of row y from column x, to the bitmap and
// splits it over the row's words: lo lands in row[i] and hi in
// row[i+1]. The row is nil when nothing lands.
func (b *Bitmap) rowSpan(x, y int, v uint64) (row []uint64, i int, lo, hi uint64) {
	if y < 0 || y >= b.h || x >= b.w || x <= -64 {
		return nil, 0, 0, 0
	}
	if x < 0 {
		v, x = v>>uint(-x), 0
	}
	if n := b.w - x; n < 64 {
		v &= 1<<uint(n) - 1
	}
	row = b.words[y*b.wpr : (y+1)*b.wpr]
	i, s := x>>6, uint(x&63)
	if s != 0 && i+1 < len(row) {
		hi = v >> (64 - s)
	}
	return row, i, v << s, hi
}

// AnyAt reports whether any of the points ps, translated by at, hits a
// set bit. Points landing outside the bitmap read as false.
func (b *Bitmap) AnyAt(ps []Point, at Point) bool {
	for _, p := range ps {
		if b.Get(p.X+at.X, p.Y+at.Y) {
			return true
		}
	}
	return false
}

// And clears every bit that is clear in src. Dimensions must match; a
// mismatch panics.
func (b *Bitmap) And(src *Bitmap) {
	if b.w != src.w || b.h != src.h {
		panic("grid: And dimension mismatch")
	}
	for i, w := range src.words {
		b.words[i] &= w
	}
}

// AndNot clears every bit that is set in src. Dimensions must match;
// a mismatch panics.
func (b *Bitmap) AndNot(src *Bitmap) {
	if b.w != src.w || b.h != src.h {
		panic("grid: AndNot dimension mismatch")
	}
	for i, w := range src.words {
		b.words[i] &^= w
	}
}

// MaxSetY returns the largest y holding a set bit, or -1 if the bitmap is
// empty.
func (b *Bitmap) MaxSetY() int {
	for y := b.h - 1; y >= 0; y-- {
		row := b.words[y*b.wpr : (y+1)*b.wpr]
		for _, w := range row {
			if w != 0 {
				return y
			}
		}
	}
	return -1
}

// Extent returns the tight bounding rectangle of the set bits, or the
// zero (empty) Rect when no bit is set. It scans a word at a time.
func (b *Bitmap) Extent() Rect {
	r := Rect{MinX: b.w, MinY: b.h}
	for y := 0; y < b.h; y++ {
		for i, w := range b.words[y*b.wpr : (y+1)*b.wpr] {
			if w == 0 {
				continue
			}
			r.MinX = min(r.MinX, i*64+bits.TrailingZeros64(w))
			r.MaxX = max(r.MaxX, i*64+64-bits.LeadingZeros64(w))
			r.MinY = min(r.MinY, y)
			r.MaxY = y + 1
		}
	}
	if r.Empty() {
		return Rect{}
	}
	return r
}

// String renders the bitmap with '#' for set and '.' for clear bits, top
// row (largest y) first, for debugging and golden tests.
func (b *Bitmap) String() string {
	var sb strings.Builder
	for y := b.h - 1; y >= 0; y-- {
		for x := 0; x < b.w; x++ {
			if b.Get(x, y) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		if y > 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

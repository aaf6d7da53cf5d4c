package grid

import "testing"

func BenchmarkBitmapAnyAt(b *testing.B) {
	bm := NewBitmap(72, 60)
	for i := 0; i < 72*60; i += 7 {
		bm.Set(i%72, (i/72)%60, true)
	}
	shape := make([]Point, 60)
	for i := range shape {
		shape[i] = Pt(i%8, i/8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.AnyAt(shape, Pt(i%60, i%50))
	}
}

func BenchmarkBitmapCount(b *testing.B) {
	bm := NewBitmap(72, 60)
	bm.SetRect(RectXYWH(3, 3, 60, 50), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Count()
	}
}

func BenchmarkBitmapClone(b *testing.B) {
	bm := NewBitmap(72, 60)
	bm.SetRect(RectXYWH(0, 0, 72, 30), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.Clone()
	}
}

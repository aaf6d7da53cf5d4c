package obs

import (
	"math"
	"math/rand"
	"testing"
)

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func TestHistogramBasics(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 112.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	// 10k uniform samples in [0, 1000) with 10-wide linear buckets: the
	// interpolated quantiles must land within one bucket of the truth.
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(10 * (i + 1))
	}
	h := newHistogram(bounds)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Float64() * 1000)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.1, 100}, {0.5, 500}, {0.9, 900}, {0.99, 990},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 15 {
			t.Errorf("q%.2f = %v, want ~%v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileExponential(t *testing.T) {
	// Exponential with mean 100 into doubling buckets; median must be
	// near 100·ln2 ≈ 69.3 within bucket resolution (bucket [64,128]).
	h := newHistogram(ExpBounds(1, 2, 16))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		h.Observe(rng.ExpFloat64() * 100)
	}
	got := h.Quantile(0.5)
	if got < 64 || got > 100 {
		t.Errorf("median = %v, want within bucket of %v", got, 100*math.Ln2)
	}
}

func TestHistogramQuantileSmallSample(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	h.Observe(15)
	// A single sample: every quantile is within the observed range,
	// which collapses to the sample itself.
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 15 {
			t.Errorf("q%v = %v, want 15", q, got)
		}
	}
}

func TestHistogramQuantileEdge(t *testing.T) {
	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	h := newHistogram([]float64{1})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// Samples beyond the last bound land in the +Inf bucket; quantiles
	// there report the observed max, not infinity.
	h.Observe(5)
	h.Observe(7)
	if got := h.Quantile(0.99); got != 7 {
		t.Errorf("overflow-bucket quantile = %v, want 7", got)
	}
	// Out-of-range q is clamped.
	if got := h.Quantile(2); got != 7 {
		t.Errorf("q=2 quantile = %v, want 7", got)
	}
	if got := h.Quantile(-1); got > 7 {
		t.Errorf("q=-1 quantile = %v, want <= max", got)
	}
}

func TestBoundsHelpers(t *testing.T) {
	exp := ExpBounds(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", exp, want)
		}
	}
}

package obs

import (
	"math"
	"sync"
)

// Histogram is a fixed-bucket histogram with Prometheus-style cumulative
// exposition and quantile estimation by linear interpolation within
// buckets. It is safe for concurrent Observe calls.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1; last bucket is (bounds[n-1], +Inf)
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// newHistogram builds a histogram over the given bucket upper bounds
// (an implicit +Inf bucket is appended). Bounds that are not strictly
// increasing panic: buckets would silently misclassify observations.
func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]uint64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// ExpBounds returns n exponentially growing bucket bounds starting at
// start with the given factor — the usual shape for latencies. It
// panics unless start > 0, factor > 1 and n >= 1.
func ExpBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBounds needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefDurationBounds are the default bounds for phase/latency timers, in
// seconds: 10 µs .. ~84 s, doubling.
var DefDurationBounds = ExpBounds(10e-6, 2, 24)

// Observe records one sample. No-op on a nil Histogram (as handed out
// by a nil Registry).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	idx := len(h.bounds)
	// Bounds lists are short (tens); linear scan beats binary search.
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 <= q <= 1) assuming samples are
// uniformly distributed within each bucket, the same model Prometheus'
// histogram_quantile uses. The estimate is clamped to the observed
// [min, max]; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(h.counts)-1 {
			var lo, hi float64
			switch {
			case i == len(h.bounds): // +Inf bucket
				return h.max
			case i == 0:
				lo, hi = 0, h.bounds[0]
				if h.min < lo {
					lo = h.min
				}
			default:
				lo, hi = h.bounds[i-1], h.bounds[i]
			}
			est := lo + (hi-lo)*(rank-cum)/float64(c)
			return clamp(est, h.min, h.max)
		}
		cum = next
	}
	return h.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// histSnapshot is a consistent copy for exposition.
type histSnapshot struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSnapshot{
		bounds: h.bounds,
		counts: append([]uint64(nil), h.counts...),
		count:  h.count,
		sum:    h.sum,
		min:    h.min,
		max:    h.max,
	}
	return s
}

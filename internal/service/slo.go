package service

import (
	"sync"
	"time"
)

// sloWindows are the rolling windows reported by /v1/stats.
var sloWindows = []struct {
	label string
	d     time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// sloBucketSeconds is the tracker's horizon: one bucket per second,
// one hour deep (the largest reported window).
const sloBucketSeconds = 3600

// sloTracker is the daemon's SLO accountant: per-second buckets of
// request outcomes over the last hour, folded into rolling
// availability (non-5xx share) and latency-objective attainment
// (share of available responses served within the objective). Buckets
// are lazily reset as the ring wraps, so an idle daemon pays nothing.
type sloTracker struct {
	objective time.Duration
	now       func() time.Time // test hook

	mu      sync.Mutex
	buckets [sloBucketSeconds]sloBucket
}

// sloBucket accumulates one second of outcomes. sec tags the bucket's
// absolute second so stale ring slots are detected on read and write.
type sloBucket struct {
	sec   int64
	total int64
	ok    int64 // non-5xx
	fast  int64 // non-5xx and within the latency objective
}

func newSLOTracker(objective time.Duration) *sloTracker {
	return &sloTracker{objective: objective, now: time.Now}
}

// Observe files one finished request.
func (t *sloTracker) Observe(d time.Duration, status int) {
	if t == nil {
		return
	}
	sec := t.now().Unix()
	t.mu.Lock()
	b := &t.buckets[sec%sloBucketSeconds]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.total++
	if status < 500 {
		b.ok++
		if d <= t.objective {
			b.fast++
		}
	}
	t.mu.Unlock()
}

// SLOWindowStats is the attainment over one rolling window. An empty
// window attains both objectives vacuously (ratios 1).
type SLOWindowStats struct {
	Requests          int64   `json:"requests"`
	Available         int64   `json:"available"`
	WithinLatency     int64   `json:"withinLatency"`
	Availability      float64 `json:"availability"`
	LatencyAttainment float64 `json:"latencyAttainment"`
}

// Window folds the buckets of the trailing window w (clamped to
// [1s, 1h]) into attainment ratios.
func (t *sloTracker) Window(w time.Duration) SLOWindowStats {
	st := SLOWindowStats{Availability: 1, LatencyAttainment: 1}
	if t == nil {
		return st
	}
	n := int(w / time.Second)
	if n < 1 {
		n = 1
	}
	if n > sloBucketSeconds {
		n = sloBucketSeconds
	}
	sec := t.now().Unix()
	t.mu.Lock()
	for i := 0; i < n; i++ {
		s := sec - int64(i)
		b := &t.buckets[s%sloBucketSeconds]
		if b.sec != s {
			continue
		}
		st.Requests += b.total
		st.Available += b.ok
		st.WithinLatency += b.fast
	}
	t.mu.Unlock()
	if st.Requests > 0 {
		st.Availability = float64(st.Available) / float64(st.Requests)
		st.LatencyAttainment = float64(st.WithinLatency) / float64(st.Requests)
	}
	return st
}

// SLOStats is the SLO section of /v1/stats: the configured latency
// objective and the attainment over the three standard rolling
// windows.
type SLOStats struct {
	LatencyObjectiveMs float64                   `json:"latencyObjectiveMs"`
	Windows            map[string]SLOWindowStats `json:"windows"`
}

// Stats snapshots the SLO accounting over the standard windows.
func (t *sloTracker) Stats() SLOStats {
	st := SLOStats{Windows: make(map[string]SLOWindowStats, len(sloWindows))}
	if t != nil {
		st.LatencyObjectiveMs = float64(t.objective.Microseconds()) / 1000
	}
	for _, w := range sloWindows {
		st.Windows[w.label] = t.Window(w.d)
	}
	return st
}

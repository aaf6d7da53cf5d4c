package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// fakeClock drives the sloTracker's time for deterministic window
// tests.
type fakeClock struct{ sec int64 }

func (c *fakeClock) now() time.Time { return time.Unix(c.sec, 0) }

func TestSLOTrackerWindows(t *testing.T) {
	clk := &fakeClock{sec: 1_000_000}
	tr := newSLOTracker(100 * time.Millisecond)
	tr.now = clk.now

	// Second 0: two good fast, one good slow, one failed.
	tr.Observe(10*time.Millisecond, 200)
	tr.Observe(20*time.Millisecond, 200)
	tr.Observe(900*time.Millisecond, 200)
	tr.Observe(5*time.Millisecond, 500)

	w := tr.Window(time.Minute)
	if w.Requests != 4 || w.Available != 3 || w.WithinLatency != 2 {
		t.Fatalf("1m window: %+v", w)
	}
	if w.Availability != 0.75 || w.LatencyAttainment != 0.5 {
		t.Fatalf("1m ratios: %+v", w)
	}

	// 90 seconds later the 1m window has rolled past those requests but
	// the 5m window still sees them.
	clk.sec += 90
	if w := tr.Window(time.Minute); w.Requests != 0 || w.Availability != 1 || w.LatencyAttainment != 1 {
		t.Fatalf("rolled 1m window not vacuously attained: %+v", w)
	}
	if w := tr.Window(5 * time.Minute); w.Requests != 4 {
		t.Fatalf("5m window lost history: %+v", w)
	}

	// A wrapped ring slot (same index, different absolute second) must
	// not resurrect stale counts.
	clk.sec += sloBucketSeconds
	if w := tr.Window(time.Hour); w.Requests != 0 {
		t.Fatalf("hour window read stale wrapped buckets: %+v", w)
	}

	// 4xx is available (the service answered) but never "fast".
	tr.Observe(1*time.Millisecond, 429)
	if w := tr.Window(time.Minute); w.Available != 1 || w.WithinLatency != 1 {
		t.Fatalf("4xx accounting: %+v", w)
	}

	// Nil tracker is inert and vacuously attained.
	var nilT *sloTracker
	nilT.Observe(time.Second, 200)
	if w := nilT.Window(time.Minute); w.Availability != 1 {
		t.Fatalf("nil tracker window: %+v", w)
	}
}

func TestSLOStatsShape(t *testing.T) {
	clk := &fakeClock{sec: 2_000_000}
	tr := newSLOTracker(250 * time.Millisecond)
	tr.now = clk.now
	tr.Observe(10*time.Millisecond, 200)

	st := tr.Stats()
	if st.LatencyObjectiveMs != 250 {
		t.Fatalf("stats header: %+v", st)
	}
	if len(st.Windows) != 3 {
		t.Fatalf("windows: %+v", st.Windows)
	}
	for _, label := range []string{"1m", "5m", "1h"} {
		w, ok := st.Windows[label]
		if !ok {
			t.Fatalf("window %q missing: %+v", label, st.Windows)
		}
		if w.Requests != 1 {
			t.Fatalf("window %q attainment: %+v", label, w)
		}
	}
}

// TestStatsSLOEndToEnd injects a slow request (latency objective of
// 1µs — any real request misses it) and reads the attainment back
// through GET /v1/stats.
func TestStatsSLOEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{SLOLatency: time.Microsecond})
	h := s.Handler()

	if rr := post(t, h, genBody(1, 2)); rr.Code != http.StatusOK {
		t.Fatalf("place: status %d body %s", rr.Code, rr.Body)
	}
	// A malformed request is still "available" (a 4xx answer) but the
	// failed-solve path must show up in the availability accounting, so
	// inject a 5xx directly.
	s.slo.Observe(time.Millisecond, 500)

	rr := get(t, h, "/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	slo := st.SLO
	if slo.LatencyObjectiveMs <= 0 {
		t.Fatalf("SLO header: %+v", slo)
	}
	a := slo.Windows["1m"]
	if a.Requests != 2 || a.Available != 1 {
		t.Fatalf("attainment after good+failed: %+v", a)
	}
	if a.Availability != 0.5 {
		t.Fatalf("availability = %v, want 0.5", a.Availability)
	}
	if a.WithinLatency != 0 || a.LatencyAttainment != 0 {
		t.Fatalf("1ns objective attained: %+v", a)
	}
}

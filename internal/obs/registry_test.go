package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c1.Add(3)
	if c2 := r.Counter("a_total"); c2.Value() != 3 {
		t.Fatalf("counter not shared: %d", c2.Value())
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge = %v", got)
	}
	h := r.Histogram("h", 1, 2)
	h.Observe(1.5)
	if got := r.Histogram("h").Count(); got != 1 {
		t.Fatalf("histogram not shared: %d", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Timer("x").Stop()
	r.ObserveDuration("x", time.Second)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSummary(nil); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
}

func TestTimerRecordsSeconds(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("phase_search")
	time.Sleep(2 * time.Millisecond)
	d := tm.Stop()
	if d < 2*time.Millisecond {
		t.Fatalf("span too short: %v", d)
	}
	h := r.Histogram("phase_search_seconds")
	if h.Count() != 1 {
		t.Fatalf("timer sample missing")
	}
	if h.Sum() < 0.002 {
		t.Fatalf("timer recorded %v seconds", h.Sum())
	}
}

// TestRegistryConcurrency exercises the registry from many goroutines so
// `go test -race` covers the concurrent metric paths.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("shared_gauge").Set(float64(i))
				r.Histogram("shared_hist", 1, 10, 100).Observe(float64(i % 150))
				r.Counter("solver_pruned_values_total").Add(2)
				r.Counter("solver_branches_total").Inc()
				r.Gauge("solver_max_depth").SetMax(float64(i % 40))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared_hist").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
	if got := r.Counter("solver_pruned_values_total").Value(); got != 16000 {
		t.Fatalf("pruned values = %d, want 16000", got)
	}
	if got := r.Gauge("solver_max_depth").Value(); got != 39 {
		t.Fatalf("max depth = %v, want 39", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "solver_branches_total 8000") {
		t.Fatalf("branch counter missing:\n%s", sb.String())
	}
}

package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
// All methods are no-ops on a nil Counter (as handed out by a nil
// Registry), so instrumentation sites need no guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (d must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64, safe for concurrent use and no-op on a
// nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax raises the gauge to v when v exceeds its current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a get-or-create store of named metrics. Metric names may
// carry Prometheus-style labels inline ("runs_total{prop=\"x\"}"); the
// exposition writers treat the text up to '{' as the metric family.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Nil-receiver safe: returns nil, and Counter methods on nil are
// no-ops, so call sites need no registry guard.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Nil-receiver safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds on first use (DefDurationBounds when none are
// given). Bounds of an existing histogram are not changed. Nil-receiver
// safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefDurationBounds
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Timer measures one span and records it, in seconds, into a histogram
// named "<name>_seconds". A nil Timer (from a nil Registry) is a no-op,
// so instrumentation sites need no guards:
//
//	defer reg.Timer("phase_model_build").Stop()
type Timer struct {
	h     *Histogram
	start time.Time
}

// Timer starts a span against histogram "<name>_seconds". Nil-receiver
// safe.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	//solverlint:allow nondeterminism timers measure wall-clock latency for telemetry; no search decision reads them
	return &Timer{h: r.Histogram(name + "_seconds"), start: time.Now()}
}

// Stop ends the span, records it and returns its duration. Safe on a
// nil Timer (returns 0).
func (t *Timer) Stop() time.Duration {
	if t == nil {
		return 0
	}
	//solverlint:allow nondeterminism timers measure wall-clock latency for telemetry; no search decision reads them
	d := time.Since(t.start)
	t.h.Observe(d.Seconds())
	return d
}

// ObserveDuration records d in seconds into histogram "<name>_seconds".
// Nil-receiver safe.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.Histogram(name + "_seconds").Observe(d.Seconds())
}

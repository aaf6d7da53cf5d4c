package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// JSONL is a Recorder that writes one JSON object per event, stamped
// with the wall-clock offset (milliseconds) since the sink was created.
// It buffers internally; call Flush before reading the output. Safe for
// concurrent Record calls.
type JSONL struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	start time.Time
}

// jsonEvent is the trace wire format. Numeric zero fields that carry no
// information for the kind are elided via omitempty.
type jsonEvent struct {
	TMs       float64 `json:"t_ms"`
	Kind      string  `json:"kind"`
	Phase     string  `json:"phase,omitempty"`
	Var       string  `json:"var,omitempty"`
	Value     int     `json:"value,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Prop      string  `json:"prop,omitempty"`
	Removed   int     `json:"removed,omitempty"`
	Objective int     `json:"objective,omitempty"`
	Nodes     int64   `json:"nodes,omitempty"`
	Worker    int     `json:"worker,omitempty"`
	Trace     string  `json:"trace,omitempty"`
	Span      string  `json:"span,omitempty"`
	SpanID    int     `json:"span_id,omitempty"`
	Parent    int     `json:"parent,omitempty"`
	StartMs   float64 `json:"start_ms,omitempty"`
	DurMs     float64 `json:"dur_ms,omitempty"`
	Attrs     string  `json:"attrs,omitempty"`
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	//solverlint:allow nondeterminism the stream epoch stamps event lines for humans; the solver never reads it back
	return &JSONL{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// Record implements Recorder.
func (j *JSONL) Record(e Event) {
	je := jsonEvent{
		//solverlint:allow nondeterminism event timestamps are output-only telemetry; no search decision reads them
		TMs:       float64(time.Since(j.start).Microseconds()) / 1000,
		Kind:      e.Kind.String(),
		Phase:     e.Phase,
		Var:       e.Var,
		Value:     e.Value,
		Depth:     e.Depth,
		Prop:      e.Prop,
		Removed:   e.Removed,
		Objective: e.Objective,
		Nodes:     e.Nodes,
		Worker:    e.Worker,
		Trace:     e.Trace,
		Span:      e.Span,
		SpanID:    e.SpanID,
		Parent:    e.Parent,
		StartMs:   float64(e.Offset.Microseconds()) / 1000,
		DurMs:     float64(e.Dur.Microseconds()) / 1000,
		Attrs:     e.Attrs,
	}
	j.mu.Lock()
	// Encoding errors surface at Flush; a trace must never abort a solve.
	_ = j.enc.Encode(je)
	j.mu.Unlock()
}

// Flush drains the internal buffer to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bw.Flush()
}

// Stats is a Recorder that aggregates the quantities that exist only
// as events into a Registry: branches, prunes and pruned values,
// solutions, and the maximum search depth. The search's own counts
// (backtracks, propagations, incumbents, runs per propagator) are
// exported by the placer from the solver itself (core.Options.Metrics).
// Safe for concurrent Record calls.
type Stats struct {
	branches  *Counter
	prunes    *Counter
	pruned    *Counter
	solutions *Counter
	maxDepth  *Gauge
}

// NewStats returns a Stats aggregator feeding reg.
func NewStats(reg *Registry) *Stats {
	return &Stats{
		branches:  reg.Counter("solver_branches_total"),
		prunes:    reg.Counter("solver_prunes_total"),
		pruned:    reg.Counter("solver_pruned_values_total"),
		solutions: reg.Counter("solver_solutions_total"),
		maxDepth:  reg.Gauge("solver_max_depth"),
	}
}

// Record implements Recorder.
func (s *Stats) Record(e Event) {
	switch e.Kind {
	case KindBranch:
		s.branches.Inc()
		s.maxDepth.SetMax(float64(e.Depth))
	case KindPrune:
		s.prunes.Inc()
		s.pruned.Add(int64(e.Removed))
	case KindSolution:
		s.solutions.Inc()
	}
}

// family splits a possibly-labelled metric name into its family.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (families sorted, one TYPE comment per family).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]string, 0, len(r.counters))
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n := range r.counters {
		counters = append(counters, n)
	}
	gauges := make([]string, 0, len(r.gauges))
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	hists := make([]string, 0, len(r.hists))
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n := range r.hists {
		hists = append(hists, n)
	}
	cv := map[string]int64{}
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n, c := range r.counters {
		cv[n] = c.Value()
	}
	gv := map[string]float64{}
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n, g := range r.gauges {
		gv[n] = g.Value()
	}
	hv := map[string]histSnapshot{}
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n, h := range r.hists {
		hv[n] = h.snapshot()
	}
	r.mu.Unlock()

	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)

	bw := bufio.NewWriter(w)
	lastFam := ""
	for _, n := range counters {
		if f := family(n); f != lastFam {
			fmt.Fprintf(bw, "# TYPE %s counter\n", f)
			lastFam = f
		}
		fmt.Fprintf(bw, "%s %d\n", n, cv[n])
	}
	for _, n := range gauges {
		fmt.Fprintf(bw, "# TYPE %s gauge\n", family(n))
		fmt.Fprintf(bw, "%s %s\n", n, formatFloat(gv[n]))
	}
	for _, n := range hists {
		s := hv[n]
		fam, labels := splitLabels(n)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", fam)
		cum := uint64(0)
		for i, b := range s.bounds {
			cum += s.counts[i]
			fmt.Fprintf(bw, "%s_bucket{%sle=\"%s\"} %d\n", fam, labels, formatFloat(b), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, labels, s.count)
		suffix := ""
		if labels != "" {
			suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		fmt.Fprintf(bw, "%s_sum%s %s\n", fam, suffix, formatFloat(s.sum))
		fmt.Fprintf(bw, "%s_count%s %d\n", fam, suffix, s.count)
	}
	return bw.Flush()
}

// splitLabels returns the family and the inner label text (with a
// trailing comma when non-empty) of a possibly-labelled name.
func splitLabels(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteSummary renders a human-readable summary table: counters and
// gauges first, then one line per histogram with count, mean and the
// p50/p90/p99 quantile estimates.
func (r *Registry) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type kv struct {
		name string
		val  string
	}
	var scalars []kv
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n, c := range r.counters {
		scalars = append(scalars, kv{n, fmt.Sprintf("%d", c.Value())})
	}
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n, g := range r.gauges {
		scalars = append(scalars, kv{n, formatFloat(g.Value())})
	}
	type hrow struct {
		name string
		s    histSnapshot
	}
	var hrows []hrow
	//solverlint:allow nondeterminism keys are collected then sorted before rendering; iteration order never escapes
	for n, h := range r.hists {
		hrows = append(hrows, hrow{n, h.snapshot()})
	}
	r.mu.Unlock()

	sort.Slice(scalars, func(i, j int) bool { return scalars[i].name < scalars[j].name })
	sort.Slice(hrows, func(i, j int) bool { return hrows[i].name < hrows[j].name })

	bw := bufio.NewWriter(w)
	if len(scalars) > 0 {
		fmt.Fprintln(bw, "-- metrics --")
		for _, s := range scalars {
			fmt.Fprintf(bw, "%-64s %s\n", s.name, s.val)
		}
	}
	if len(hrows) > 0 {
		fmt.Fprintln(bw, "-- histograms --")
		fmt.Fprintf(bw, "%-48s %8s %12s %12s %12s %12s\n", "name", "count", "mean", "p50", "p90", "max")
		for _, hr := range hrows {
			s := hr.s
			if s.count == 0 {
				fmt.Fprintf(bw, "%-48s %8d\n", hr.name, 0)
				continue
			}
			mean := s.sum / float64(s.count)
			h := &Histogram{bounds: s.bounds, counts: s.counts, count: s.count, sum: s.sum, min: s.min, max: s.max}
			fmt.Fprintf(bw, "%-48s %8d %12.6g %12.6g %12.6g %12.6g\n",
				hr.name, s.count, mean, h.Quantile(0.5), h.Quantile(0.9), s.max)
		}
	}
	return bw.Flush()
}

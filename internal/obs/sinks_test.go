package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONLTrace(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.Record(Event{Kind: KindBranch, Var: "x", Value: 3, Depth: 2})
	j.Record(Event{Kind: KindIncumbent, Objective: 7, Nodes: 41})
	j.Record(Event{Kind: KindPrune, Var: "y", Removed: 5, Prop: "alldiff"})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "branch" || ev["var"] != "x" || ev["value"] != float64(3) {
		t.Fatalf("branch event = %v", ev)
	}
	if _, ok := ev["t_ms"]; !ok {
		t.Fatal("missing t_ms stamp")
	}
	if _, ok := ev["objective"]; ok {
		t.Fatal("zero objective must be omitted from a branch event")
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "incumbent" || ev["objective"] != float64(7) || ev["nodes"] != float64(41) {
		t.Fatalf("incumbent event = %v", ev)
	}
}

func TestStatsAggregation(t *testing.T) {
	r := NewRegistry()
	s := NewStats(r)
	s.Record(Event{Kind: KindBranch, Depth: 3})
	s.Record(Event{Kind: KindBranch, Depth: 9})
	s.Record(Event{Kind: KindBranch, Depth: 4})
	s.Record(Event{Kind: KindBacktrack, Depth: 9})
	s.Record(Event{Kind: KindPropagate, Prop: "geost.non-overlap"})
	s.Record(Event{Kind: KindPrune, Var: "v", Removed: 12, Prop: "geost.non-overlap"})
	s.Record(Event{Kind: KindSolution})
	s.Record(Event{Kind: KindIncumbent, Objective: 13, Nodes: 150})

	if got := r.Counter("solver_branches_total").Value(); got != 3 {
		t.Errorf("branches = %d", got)
	}
	if got := r.Counter("solver_prunes_total").Value(); got != 1 {
		t.Errorf("prunes = %d", got)
	}
	if got := r.Counter("solver_pruned_values_total").Value(); got != 12 {
		t.Errorf("pruned values = %d", got)
	}
	if got := r.Counter("solver_solutions_total").Value(); got != 1 {
		t.Errorf("solutions = %d", got)
	}
	if got := r.Gauge("solver_max_depth").Value(); got != 9 {
		t.Errorf("max depth = %v", got)
	}
	// The search's own counts are the placer's to export; Stats leaves
	// them alone.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"solver_backtracks_total", "solver_propagations_total", "solver_propagator_runs_total", "solver_incumbents_total", "solver_best_objective"} {
		if strings.Contains(sb.String(), name) {
			t.Errorf("Stats exported %s:\n%s", name, sb.String())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(5)
	r.Gauge("height").Set(12)
	r.Histogram("latency_seconds", 0.1, 1).Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 5",
		"# TYPE height gauge",
		"height 12",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 0`,
		`latency_seconds_bucket{le="1"} 1`,
		`latency_seconds_bucket{le="+Inf"} 1`,
		"latency_seconds_sum 0.5",
		"latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("nodes_total").Add(42)
	h := r.Histogram("solve_seconds", 1, 2, 4)
	h.Observe(1.5)
	h.Observe(3)
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "nodes_total") || !strings.Contains(out, "42") {
		t.Errorf("summary missing counter:\n%s", out)
	}
	if !strings.Contains(out, "solve_seconds") {
		t.Errorf("summary missing histogram:\n%s", out)
	}
}

func TestSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		TracePath:   filepath.Join(dir, "trace.jsonl"),
		MetricsPath: filepath.Join(dir, "metrics.prom"),
		MemProfile:  filepath.Join(dir, "mem.pprof"),
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder == nil || s.Registry == nil {
		t.Fatal("session must expose recorder and registry")
	}
	s.Recorder.Record(Event{Kind: KindBranch, Var: "x", Value: 1, Depth: 4})
	s.Recorder.Record(Event{Kind: KindIncumbent, Objective: 4})
	s.Registry.Counter("custom_total").Inc()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	tf, err := os.Open(cfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sc := bufio.NewScanner(tf)
	n := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("trace has %d events, want 2", n)
	}
	prom, err := os.ReadFile(cfg.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"custom_total 1", "solver_branches_total 1", "solver_max_depth 4"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q:\n%s", want, prom)
		}
	}
	if fi, err := os.Stat(cfg.MemProfile); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

func TestCombine(t *testing.T) {
	if Combine(nil, nil) != nil {
		t.Fatal("Combine of nils must be nil")
	}
	r := NewRegistry()
	s := NewStats(r)
	if got := Combine(nil, s); got != Recorder(s) {
		t.Fatal("Combine with one live recorder must return it directly")
	}
	m := Combine(s, NewJSONL(&strings.Builder{}))
	if _, ok := m.(Multi); !ok {
		t.Fatalf("Combine of two = %T, want Multi", m)
	}
	m.Record(Event{Kind: KindSolution})
	if r.Counter("solver_solutions_total").Value() != 1 {
		t.Fatal("Multi did not fan out")
	}
}

package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONLTrace pins the span wire format cmd/tracecat reads: the
// field names and order, and the elision of a root span's zero parent
// and start offset.
func TestJSONLTrace(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	id := strings.Repeat("ab", 16)
	j.writeSpan(spanLine{Trace: id, Span: "solve", SpanID: 2, Parent: 1, StartMs: 0.5, DurMs: 1.25, Attrs: "nodes=3"})
	j.writeSpan(spanLine{Trace: id, Span: "request", SpanID: 1, DurMs: 2})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := []string{
		`"kind":"span","trace":"` + id + `","span":"solve","span_id":2,"parent":1,"start_ms":0.5,"dur_ms":1.25,"attrs":"nodes=3"}`,
		`"kind":"span","trace":"` + id + `","span":"request","span_id":1,"dur_ms":2}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %q", len(lines), len(want), sb.String())
	}
	for i, line := range lines {
		stamp, rest, ok := strings.Cut(line, ",")
		if !ok || !strings.HasPrefix(stamp, `{"t_ms":`) || rest != want[i] {
			t.Errorf("line %d = %s, want {\"t_ms\":…,%s", i, line, want[i])
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
	if s.Trace == nil || s.Registry == nil {
		t.Fatal("session must expose the span sink and the registry")
	}
	trace := NewTracer(TracerConfig{Sink: s.Trace}).New("request")
	trace.StartSpan("solve").End()
	trace.Finish()
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
		if ev["kind"] != "span" || ev["trace"] != trace.ID().String() {
			t.Fatalf("line %d is no span of the trace: %v", n, ev)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("trace has %d spans, want 2", n)
	}
	prom, err := os.ReadFile(cfg.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "custom_total 1") {
		t.Errorf("metrics missing custom_total 1:\n%s", prom)
	}
	if fi, err := os.Stat(cfg.MemProfile); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}

	off, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Trace != nil || off.Registry != nil {
		t.Fatal("a session with every output off must expose neither sink")
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero id")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("id renders as %d chars, want 32: %q", len(s), s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32), strings.Repeat("a", 31)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestAttrRendering(t *testing.T) {
	attrs := []Attr{
		String("role", "leader"),
		Int("nodes", 42),
		Bool("hit", true),
		Bool("miss", false),
	}
	got := encodeAttrs(attrs)
	want := "role=leader nodes=42 hit=true miss=false"
	if got != want {
		t.Fatalf("encodeAttrs = %q, want %q", got, want)
	}
	if encodeAttrs(nil) != "" {
		t.Fatal("encodeAttrs(nil) not empty")
	}
}

// TestSpanLifecycle checks parent links, attribute capture, ring
// filing, and the KindSpan events reaching the recorder sink.
func TestSpanLifecycle(t *testing.T) {
	var rec eventCollector
	tr := NewTracer(TracerConfig{Recorder: &rec})
	trace := tr.New("request")
	if trace == nil || trace.ID().IsZero() {
		t.Fatal("tracer minted no trace")
	}

	child := trace.StartSpan("cache_lookup")
	child.SetAttrs(Bool("hit", false))
	child.End()
	solve := trace.StartSpan("solve")
	solve.SetAttrs(Int("nodes", 7))
	solve.End()
	trace.Finish()

	snap := tr.Snapshot()
	if len(snap.Recent) != 1 || len(snap.Slowest) != 1 {
		t.Fatalf("rings: recent %d slowest %d, want 1 and 1", len(snap.Recent), len(snap.Slowest))
	}
	ts := snap.Recent[0]
	if ts.TraceID != trace.ID().String() || ts.Name != "request" {
		t.Fatalf("summary header: %+v", ts)
	}
	if len(ts.Spans) != 3 {
		t.Fatalf("summary has %d spans, want 3", len(ts.Spans))
	}
	byName := map[string]SpanSummary{}
	for _, s := range ts.Spans {
		byName[s.Name] = s
	}
	if byName["request"].Parent != 0 || byName["cache_lookup"].Parent != byName["request"].ID ||
		byName["solve"].Parent != byName["request"].ID {
		t.Fatalf("parent links wrong: %+v", ts.Spans)
	}
	if !byName["solve"].Ended || byName["solve"].Attrs["nodes"] != "7" {
		t.Fatalf("solve span summary: %+v", byName["solve"])
	}

	if len(rec.events) != 3 {
		t.Fatalf("recorder saw %d events, want 3 spans", len(rec.events))
	}
	for _, e := range rec.events {
		if e.Kind != KindSpan || e.Trace != trace.ID().String() {
			t.Fatalf("unexpected event: %+v", e)
		}
	}
	if rec.events[0].Span != "cache_lookup" || rec.events[0].Attrs != "hit=false" {
		t.Fatalf("first span event: %+v", rec.events[0])
	}
}

type eventCollector struct{ events []Event }

func (c *eventCollector) Record(e Event) { c.events = append(c.events, e) }

func TestSpanEndIdempotent(t *testing.T) {
	var rec eventCollector
	tr := NewTracer(TracerConfig{Recorder: &rec})
	trace := tr.New("r")
	sp := trace.StartSpan("s")
	d1 := sp.End()
	d2 := sp.End()
	if d1 != d2 {
		t.Fatalf("second End returned %v, want recorded %v", d2, d1)
	}
	trace.Finish()
	trace.Finish()
	spans := 0
	for _, e := range rec.events {
		if e.Kind == KindSpan {
			spans++
		}
	}
	if spans != 2 { // "s" once, root once
		t.Fatalf("recorder saw %d span events, want 2 (End and Finish are idempotent)", spans)
	}
	if got := tr.Snapshot(); len(got.Recent) != 1 {
		t.Fatalf("double Finish filed %d traces, want 1", len(got.Recent))
	}
}

// TestLateSpanAfterFinish models a singleflight leader's detached
// solve ending after the owning request finished: the filed summary
// marks it unended, the KindSpan event still reaches the sink.
func TestLateSpanAfterFinish(t *testing.T) {
	var rec eventCollector
	tr := NewTracer(TracerConfig{Recorder: &rec})
	trace := tr.New("request")
	solve := trace.StartSpan("solve")
	trace.Finish()

	ts := tr.Snapshot().Recent[0]
	for _, s := range ts.Spans {
		if s.Name == "solve" && s.Ended {
			t.Fatal("unended span filed as ended")
		}
	}
	solve.End()
	last := rec.events[len(rec.events)-1]
	if last.Kind != KindSpan || last.Span != "solve" {
		t.Fatalf("late End emitted no span event: %+v", last)
	}
}

func TestTracerRings(t *testing.T) {
	tr := NewTracer(TracerConfig{Recent: 3, Slowest: 2})
	var want []string
	for i := 0; i < 5; i++ {
		trace := tr.New("r")
		want = append(want, trace.ID().String())
		trace.Finish()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 3 {
		t.Fatalf("recent ring holds %d, want 3", len(snap.Recent))
	}
	// Newest first: traces 4, 3, 2.
	for i, ts := range snap.Recent {
		if ts.TraceID != want[4-i] {
			t.Fatalf("recent[%d] = %s, want %s", i, ts.TraceID, want[4-i])
		}
	}
	if len(snap.Slowest) != 2 {
		t.Fatalf("slowest ring holds %d, want 2", len(snap.Slowest))
	}
	if snap.Slowest[0].DurMs < snap.Slowest[1].DurMs {
		t.Fatal("slowest ring not sorted descending")
	}
}

func TestSpanEventJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := NewTracer(TracerConfig{Recorder: sink})
	trace := tr.New("request")
	sp := trace.StartSpan("solve")
	sp.SetAttrs(Int("nodes", 3))
	sp.End()
	trace.Finish()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2: %q", len(lines), buf.String())
	}
	var got struct {
		Kind   string  `json:"kind"`
		Trace  string  `json:"trace"`
		Span   string  `json:"span"`
		SpanID int     `json:"span_id"`
		Parent int     `json:"parent"`
		DurMs  float64 `json:"dur_ms"`
		Attrs  string  `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != "span" || got.Trace != trace.ID().String() || got.Span != "solve" ||
		got.Parent != 1 || got.SpanID != 2 || got.Attrs != "nodes=3" {
		t.Fatalf("span JSONL line: %+v", got)
	}
}

// BenchmarkSpanEnabled is the cost of tracing one request: a trace
// with one attributed span, ended and filed.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace := tr.New("request")
		sp := trace.StartSpan("solve")
		sp.SetAttrs(Int("nodes", int64(i)))
		sp.End()
		trace.Finish()
	}
}

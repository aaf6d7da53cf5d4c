package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the request-scoped tracing layer: a Trace is one
// request's tree of timed Spans, minted by a Tracer that retains
// bounded rings of the most recent and the slowest finished traces (in
// the spirit of golang.org/x/net/trace) and writes every completed
// span to its JSONL sink, when it has one.
// Tracing has no disabled mode: whoever traces holds a live Tracer,
// and every Trace and Span it mints is live too.

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits
// (the W3C trace-context format).
type TraceID [16]byte

// NewTraceID draws a random trace id. The randomness here is identity,
// not behaviour: ids never influence any solver or serving decision.
func NewTraceID() TraceID {
	var id TraceID
	// crypto/rand.Read does not fail on supported platforms; on a
	// hypothetical failure the zero id still traces, just less uniquely.
	_, _ = rand.Read(id[:])
	return id
}

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is all zero (the invalid id).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// ParseTraceID parses the 32-hex-digit form; ok is false for any other
// input, including the all-zero id.
func ParseTraceID(s string) (id TraceID, ok bool) {
	if len(s) != 2*len(id) {
		return id, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return TraceID{}, false
	}
	copy(id[:], b)
	return id, !id.IsZero()
}

// attrKind discriminates the Attr payload.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrBool
)

// Attr is one typed span attribute. Construct with String, Int or Bool.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
}

// String builds a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: attrStr, s: v} }

// Int builds an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Bool builds a boolean-valued attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// Value renders the attribute value as text.
func (a Attr) Value() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.i, 10)
	case attrBool:
		if a.i != 0 {
			return "true"
		}
		return "false"
	}
	return a.s
}

// encodeAttrs flattens attrs into the attrs field of a span line:
// space-separated key=value pairs in attachment order.
func encodeAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value())
	}
	return b.String()
}

// TracerConfig sizes a Tracer. Zero fields take the stated defaults.
type TracerConfig struct {
	// Sink receives one line per completed span (nil keeps spans in
	// the rings only).
	Sink *JSONL
	// Recent is the capacity of the most-recent-traces ring
	// (default 64).
	Recent int
	// Slowest is the capacity of the slowest-traces ring (default 16).
	Slowest int
}

// Tracer mints request-scoped traces and retains bounded rings of the
// most recent and the slowest finished ones.
type Tracer struct {
	sink *JSONL

	mu      sync.Mutex
	recent  []TraceSummary // ring, position recentN%cap
	recentN int            // traces filed so far
	slowest []TraceSummary // sorted by DurMs descending, len <= slowCap
	slowCap int
}

// NewTracer returns a tracer with the given sink and ring capacities.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Recent <= 0 {
		cfg.Recent = 64
	}
	if cfg.Slowest <= 0 {
		cfg.Slowest = 16
	}
	return &Tracer{
		sink:    cfg.Sink,
		recent:  make([]TraceSummary, 0, cfg.Recent),
		slowCap: cfg.Slowest,
	}
}

// New starts a trace with a fresh random id; name labels the root span.
func (tr *Tracer) New(name string) *Trace {
	return tr.NewWithID(NewTraceID(), name)
}

// NewWithID starts a trace under a caller-provided id (e.g. one
// propagated from an upstream system).
func (tr *Tracer) NewWithID(id TraceID, name string) *Trace {
	//solverlint:allow nondeterminism trace start timestamps are reporting-only; no solver or serving decision reads them
	t := &Trace{id: id, tracer: tr, start: time.Now()}
	t.root = t.newSpan(name, 0)
	return t
}

// file inserts a finished trace into both rings.
func (tr *Tracer) file(ts TraceSummary) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.recent) < cap(tr.recent) {
		tr.recent = append(tr.recent, ts)
	} else {
		tr.recent[tr.recentN%cap(tr.recent)] = ts
	}
	tr.recentN++

	pos := sort.Search(len(tr.slowest), func(i int) bool { return tr.slowest[i].DurMs < ts.DurMs })
	if pos >= tr.slowCap {
		return
	}
	tr.slowest = append(tr.slowest, TraceSummary{})
	copy(tr.slowest[pos+1:], tr.slowest[pos:])
	tr.slowest[pos] = ts
	if len(tr.slowest) > tr.slowCap {
		tr.slowest = tr.slowest[:tr.slowCap]
	}
}

// TracerSnapshot is the wire form of a ring dump (GET /debug/traces):
// the most recent finished traces, newest first, and the slowest,
// slowest first.
type TracerSnapshot struct {
	Recent  []TraceSummary `json:"recent"`
	Slowest []TraceSummary `json:"slowest"`
}

// Snapshot copies both rings; empty rings yield empty (non-nil)
// slices.
func (tr *Tracer) Snapshot() TracerSnapshot {
	snap := TracerSnapshot{Recent: []TraceSummary{}, Slowest: []TraceSummary{}}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := len(tr.recent)
	for i := 0; i < n; i++ {
		snap.Recent = append(snap.Recent, tr.recent[(tr.recentN-1-i)%n])
	}
	snap.Slowest = append(snap.Slowest, tr.slowest...)
	return snap
}

// Trace is one request's tree of spans. All methods are safe for
// concurrent use.
type Trace struct {
	id     TraceID
	tracer *Tracer
	start  time.Time

	mu       sync.Mutex
	spans    []*Span
	nextID   int
	root     *Span
	finished bool
}

// ID returns the trace id.
func (t *Trace) ID() TraceID { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// StartSpan opens a child of the root span.
func (t *Trace) StartSpan(name string) *Span {
	return t.newSpan(name, t.root.id)
}

func (t *Trace) newSpan(name string, parent int) *Span {
	t.mu.Lock()
	t.nextID++
	//solverlint:allow nondeterminism span timestamps are reporting-only; no solver or serving decision reads them
	sp := &Span{trace: t, id: t.nextID, parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Finish ends the root span and files the trace into the tracer's
// recent and slowest rings, returning the summary it filed. Spans
// still running — detached work owned by this request, e.g. a
// singleflight leader's solve outliving its HTTP request — appear in
// the filed summary marked unended; their span line is still
// written when they eventually end. Only the first Finish files; later
// calls return a fresh summary without filing it.
func (t *Trace) Finish() TraceSummary {
	t.root.End()
	t.mu.Lock()
	first := !t.finished
	t.finished = true
	ts := t.summaryLocked()
	t.mu.Unlock()
	if first {
		t.tracer.file(ts)
	}
	return ts
}

// summaryLocked snapshots the trace; t.mu must be held.
func (t *Trace) summaryLocked() TraceSummary {
	ts := TraceSummary{
		TraceID: t.id.String(),
		Name:    t.root.name,
		Start:   t.start,
		DurMs:   durMs(t.root.dur),
		Spans:   make([]SpanSummary, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		ss := SpanSummary{
			ID:      sp.id,
			Parent:  sp.parent,
			Name:    sp.name,
			StartMs: durMs(sp.start.Sub(t.start)),
			DurMs:   durMs(sp.dur),
			Ended:   sp.ended,
		}
		if len(sp.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				ss.Attrs[a.Key] = a.Value()
			}
		}
		ts.Spans = append(ts.Spans, ss)
	}
	return ts
}

// TraceSummary is an immutable snapshot of a finished trace.
type TraceSummary struct {
	TraceID string        `json:"traceId"`
	Name    string        `json:"name"`
	Start   time.Time     `json:"start"`
	DurMs   float64       `json:"durMs"`
	Spans   []SpanSummary `json:"spans"`
}

// SpanSummary is one span of a TraceSummary. Attrs render as text;
// encoding/json sorts the keys, keeping dumps deterministic.
type SpanSummary struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartMs float64           `json:"startMs"`
	DurMs   float64           `json:"durMs"`
	Ended   bool              `json:"ended"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Span is one timed interval of a trace. Mutable state is guarded by
// the owning trace's lock.
type Span struct {
	trace  *Trace
	id     int
	parent int
	name   string
	start  time.Time

	// guarded by trace.mu
	dur   time.Duration
	ended bool
	attrs []Attr
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// SetAttrs appends typed attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	s.trace.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.trace.mu.Unlock()
}

// End closes the span, writes its line to the tracer's sink, and
// returns its duration. End is idempotent: a second call returns the
// recorded duration without writing again.
func (s *Span) End() time.Duration {
	t := s.trace
	t.mu.Lock()
	if s.ended {
		d := s.dur
		t.mu.Unlock()
		return d
	}
	s.ended = true
	//solverlint:allow nondeterminism span durations are reporting-only; no solver or serving decision reads them
	s.dur = time.Since(s.start)
	d := s.dur
	attrs := encodeAttrs(s.attrs)
	t.mu.Unlock()
	if sink := t.tracer.sink; sink != nil {
		sink.writeSpan(spanLine{
			Trace:   t.id.String(),
			Span:    s.name,
			SpanID:  s.id,
			Parent:  s.parent,
			StartMs: durMs(s.start.Sub(t.start)),
			DurMs:   durMs(d),
			Attrs:   attrs,
		})
	}
	return d
}

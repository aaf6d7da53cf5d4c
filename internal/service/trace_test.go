package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// tracesSnapshot fetches and decodes /debug/traces.
func tracesSnapshot(t *testing.T, h http.Handler) obs.TracerSnapshot {
	t.Helper()
	rr := get(t, h, "/debug/traces")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", rr.Code)
	}
	var snap obs.TracerSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// findTrace locates a filed trace by the X-Trace-Id a response carried.
func findTrace(t *testing.T, h http.Handler, id string) obs.TraceSummary {
	t.Helper()
	for _, ts := range tracesSnapshot(t, h).Recent {
		if ts.TraceID == id {
			return ts
		}
	}
	t.Fatalf("trace %s not in /debug/traces", id)
	return obs.TraceSummary{}
}

func spanNames(ts obs.TraceSummary) map[string]obs.SpanSummary {
	byName := make(map[string]obs.SpanSummary, len(ts.Spans))
	for _, s := range ts.Spans {
		byName[s.Name] = s
	}
	return byName
}

// TestTracedRequestSpanTree drives a real solve through the traced
// request path and checks the advertised span tree: admission
// (queue_wait) and solve under the request root, alongside
// canonicalize, cache_lookup, and singleflight, with the solver's
// counters attributed to the solve span.
func TestTracedRequestSpanTree(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Tracer: tracer})
	h := s.Handler()

	rr := post(t, h, genBody(1, 3))
	if rr.Code != http.StatusOK {
		t.Fatalf("place: status %d body %s", rr.Code, rr.Body)
	}
	id := rr.Header().Get("X-Trace-Id")
	if len(id) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32-hex", id)
	}

	ts := findTrace(t, h, id)
	byName := spanNames(ts)
	for _, name := range []string{"request", "canonicalize", "cache_lookup", "singleflight", "queue_wait", "solve"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from trace (spans %+v)", name, ts.Spans)
		}
	}
	root := byName["request"]
	if root.Parent != 0 {
		t.Fatalf("request span is not the root: %+v", root)
	}
	for _, name := range []string{"canonicalize", "cache_lookup", "singleflight", "queue_wait", "solve"} {
		if byName[name].Parent != root.ID {
			t.Fatalf("span %q not parented to the request root: %+v", name, byName[name])
		}
	}
	if byName["cache_lookup"].Attrs["hit"] != "false" {
		t.Fatalf("miss request's cache_lookup attrs: %+v", byName["cache_lookup"])
	}
	if byName["singleflight"].Attrs["role"] != "leader" {
		t.Fatalf("solo request's singleflight attrs: %+v", byName["singleflight"])
	}
	solve := byName["solve"]
	if solve.Attrs["nodes"] == "" || solve.Attrs["nodes"] == "0" {
		t.Fatalf("solver counters not attributed to the solve span: %+v", solve.Attrs)
	}
	if solve.Attrs["found"] != "true" {
		t.Fatalf("solve span outcome attrs: %+v", solve.Attrs)
	}
}

// TestSolveSpanMatchesBody pins that a traced miss's solve span and
// its response body report the same search: both read the nodes and
// backtracks of the one core.Result.
func TestSolveSpanMatchesBody(t *testing.T) {
	s := newTestServer(t, Config{Tracer: obs.NewTracer(obs.TracerConfig{})})
	h := s.Handler()
	rr := post(t, h, genBody(1, 6))
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("place: status %d X-Cache %q body %s", rr.Code, rr.Header().Get("X-Cache"), rr.Body)
	}
	var body struct {
		Nodes      int64 `json:"nodes"`
		Backtracks int64 `json:"backtracks"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Nodes == 0 {
		t.Fatalf("miss explored no nodes: %s", rr.Body)
	}
	solve := spanNames(findTrace(t, h, rr.Header().Get("X-Trace-Id")))["solve"]
	for name, want := range map[string]int64{"nodes": body.Nodes, "backtracks": body.Backtracks} {
		if got := solve.Attrs[name]; got != strconv.FormatInt(want, 10) {
			t.Errorf("solve span %s = %q, body says %d", name, got, want)
		}
	}
}

// TestCacheHitTraceHasNoSolveSpan requires a hit to skip the solver
// entirely: its trace contains the lookup (hit=true) but no
// singleflight, queue_wait, or solve span.
func TestCacheHitTraceHasNoSolveSpan(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Tracer: tracer})
	h := s.Handler()
	body := genBody(2, 2)

	if rr := post(t, h, body); rr.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d body %s", rr.Code, rr.Body)
	}
	rr := post(t, h, body)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "hit" {
		t.Fatalf("hit: status %d X-Cache %q", rr.Code, rr.Header().Get("X-Cache"))
	}
	ts := findTrace(t, h, rr.Header().Get("X-Trace-Id"))
	byName := spanNames(ts)
	if byName["cache_lookup"].Attrs["hit"] != "true" {
		t.Fatalf("hit request's cache_lookup attrs: %+v", byName["cache_lookup"])
	}
	for _, name := range []string{"solve", "queue_wait", "singleflight"} {
		if _, ok := byName[name]; ok {
			t.Fatalf("cache hit trace contains a %q span: %+v", name, ts.Spans)
		}
	}
}

// TestQueueWaitSpanUnderSaturation parks a request behind a busy
// worker and requires its trace to carry the admission queue wait as a
// span.
func TestQueueWaitSpanUnderSaturation(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 4, Tracer: tracer})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solve = func(req *canon.Request, region *fabric.Region) (*core.Result, error) {
		once.Do(func() { close(entered) })
		if len(req.Modules) == 1 { // the blocker: genBody(1, 1)
			<-release
		}
		return stubResult(region, req, len(req.Modules))
	}
	h := s.Handler()

	blocker := make(chan *httptest.ResponseRecorder, 1)
	go func() { blocker <- post(t, h, genBody(1, 1)) }()
	<-entered // the lone solver slot is now occupied

	queuedDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { queuedDone <- post(t, h, genBody(2, 2)) }()
	// Once the queued request waits at the gate, hold the blocker for
	// 20ms more, so a real wait accrues.
	waitUntil(t, "the queued request", func() bool { return s.solveGate.QueueDepth() == 1 })
	time.Sleep(20 * time.Millisecond)
	close(release)

	rr := <-queuedDone
	if rr.Code != http.StatusOK {
		t.Fatalf("queued request: status %d body %s", rr.Code, rr.Body)
	}
	if rr := <-blocker; rr.Code != http.StatusOK {
		t.Fatalf("blocker: status %d body %s", rr.Code, rr.Body)
	}
	ts := findTrace(t, h, rr.Header().Get("X-Trace-Id"))
	byName := spanNames(ts)
	qw, ok := byName["queue_wait"]
	if !ok {
		t.Fatalf("saturated request's trace has no queue_wait span: %+v", ts.Spans)
	}
	if !qw.Ended || qw.DurMs < 10 {
		t.Fatalf("queue_wait span did not record the wait (want >= 10ms): %+v", qw)
	}
}

// TestConcurrentTracedRequestsNoSpanLeakage hammers the traced path
// from many goroutines (run under -race in CI) and then audits every
// filed trace: parent links must resolve within the trace's own span
// set — a span attributed to the wrong request would break the
// invariant.
func TestConcurrentTracedRequestsNoSpanLeakage(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Recent: 256})
	s := newTestServer(t, Config{Workers: 4, MaxInFlight: 256, Tracer: tracer})
	s.solve = func(req *canon.Request, region *fabric.Region) (*core.Result, error) {
		return stubResult(region, req, len(req.Modules))
	}
	h := s.Handler()

	const goroutines = 8
	const rounds = 20
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rr := post(t, h, genBody(int64(g*rounds+r), 1+r%4))
				if rr.Code != http.StatusOK {
					t.Errorf("status %d body %s", rr.Code, rr.Body)
					return
				}
				id := rr.Header().Get("X-Trace-Id")
				if id == "" {
					t.Error("response without X-Trace-Id")
					return
				}
				mu.Lock()
				seen[id]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	for id, n := range seen {
		if n != 1 {
			t.Fatalf("trace id %s issued to %d requests", id, n)
		}
	}
	snap := tracesSnapshot(t, h)
	if len(snap.Recent) != goroutines*rounds {
		t.Fatalf("recent ring filed %d traces, want %d", len(snap.Recent), goroutines*rounds)
	}
	for _, ts := range snap.Recent {
		ids := make(map[int]bool, len(ts.Spans))
		for _, sp := range ts.Spans {
			if ids[sp.ID] {
				t.Fatalf("trace %s has duplicate span id %d", ts.TraceID, sp.ID)
			}
			ids[sp.ID] = true
		}
		for _, sp := range ts.Spans {
			if sp.Parent != 0 && !ids[sp.Parent] {
				t.Fatalf("trace %s span %q parented outside its trace (parent %d)", ts.TraceID, sp.Name, sp.Parent)
			}
		}
	}
}

// TestClientCancelReturns499 parks a waiter behind a slow singleflight
// leader and disconnects it: the waiter must return immediately with
// the 499 close status while the leader's solve finishes detached.
func TestClientCancelReturns499(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 4, Tracer: tracer})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.solve = func(req *canon.Request, region *fabric.Region) (*core.Result, error) {
		close(entered)
		<-release
		return stubResult(region, req, 1)
	}
	h := s.Handler()
	body := genBody(1, 1)

	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- post(t, h, body) }()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiterDone <- postCtx(t, h, body, ctx) }()
	// Let the waiter join the flight, then hang up.
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case rr := <-waiterDone:
		if rr.Code != statusClientClosedRequest {
			t.Fatalf("canceled waiter: status %d body %s, want 499", rr.Code, rr.Body)
		}
		if rr.Header().Get("X-Trace-Id") == "" {
			t.Fatal("499 response lost its X-Trace-Id")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter kept waiting instead of returning")
	}

	close(release)
	if rr := <-leaderDone; rr.Code != http.StatusOK {
		t.Fatalf("leader: status %d body %s", rr.Code, rr.Body)
	}
	st := s.Stats()
	if st.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1 (stats %+v)", st.Canceled, st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("client cancel misfiled as timeout (stats %+v)", st)
	}
}

// TestAccessLogLine checks the one-line-per-request contract and that
// the logged trace id matches the response header.
func TestAccessLogLine(t *testing.T) {
	var buf syncBuffer
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Tracer: tracer, AccessLog: &buf})
	h := s.Handler()

	rr := post(t, h, genBody(3, 2))
	if rr.Code != http.StatusOK {
		t.Fatalf("place: status %d body %s", rr.Code, rr.Body)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines after one request: %q", len(lines), buf.String())
	}
	var rec AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v (%q)", err, lines[0])
	}
	if rec.TraceID != rr.Header().Get("X-Trace-Id") {
		t.Fatalf("logged trace id %q != header %q", rec.TraceID, rr.Header().Get("X-Trace-Id"))
	}
	if rec.Method != "POST" || rec.Path != "/v1/place" || rec.Status != 200 || rec.Cache != "miss" {
		t.Fatalf("access record: %+v", rec)
	}
	if rec.Digest == "" || rec.DurMs <= 0 || rec.SolveMs <= 0 {
		t.Fatalf("access record missing measurements: %+v", rec)
	}

	// A malformed request logs an error line with the 400 status.
	buf.Reset()
	if rr := post(t, h, `{`); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", rr.Code)
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != 400 || rec.Error == "" || rec.Cache != "none" {
		t.Fatalf("error access record: %+v", rec)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

// TestErrorResponsesCarryTraceID requires 4xx/5xx responses to be
// correlatable: the X-Trace-Id header must be present on errors too.
func TestErrorResponsesCarryTraceID(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Tracer: tracer})
	h := s.Handler()
	rr := post(t, h, `not json`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rr.Code)
	}
	if id := rr.Header().Get("X-Trace-Id"); len(id) != 32 {
		t.Fatalf("400 response X-Trace-Id = %q, want 32-hex", id)
	}
}

// TestInboundTraceIDHonored lets an upstream caller supply the trace
// id; a malformed one is replaced, not echoed.
func TestInboundTraceIDHonored(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	s := newTestServer(t, Config{Tracer: tracer})
	h := s.Handler()

	want := "00112233445566778899aabbccddeeff"
	req := httptest.NewRequest("POST", "/v1/place", strings.NewReader(genBody(4, 1)))
	req.Header.Set("X-Trace-Id", want)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Trace-Id") != want {
		t.Fatalf("status %d X-Trace-Id %q, want 200 with %s", rr.Code, rr.Header().Get("X-Trace-Id"), want)
	}

	req = httptest.NewRequest("POST", "/v1/place", strings.NewReader(genBody(5, 1)))
	req.Header.Set("X-Trace-Id", "garbage")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if id := rr.Header().Get("X-Trace-Id"); len(id) != 32 || id == "garbage" {
		t.Fatalf("malformed inbound id echoed or dropped: %q", id)
	}
}

// TestSpanHistogramsCountEveryRequest sends a mix of /v1/place and
// session requests, then pins the span histograms against the counters
// of the same scrape — every request, place post, solve and session
// call is observed exactly once — and every access-log duration
// against the span of the filed trace it was read from.
func TestSpanHistogramsCountEveryRequest(t *testing.T) {
	var log syncBuffer
	s := newTestServer(t, Config{AccessLog: &log})
	h := s.Handler()
	places := []struct {
		name, body, status, cache string
	}{
		{"miss", permGenerateBody(), "200", "miss"},
		{"hit", permExplicitBody(t, 0), "200", "hit"},
		{"permuted hit", permExplicitBody(t, 7), "200", "hit"},
		{"generate hit", permGenerateBody(), "200", "hit"},
		{"bad request", `{`, "400", ""},
	}
	for _, p := range places {
		rr := post(t, h, p.body)
		if got := strconv.Itoa(rr.Code); got != p.status || rr.Header().Get("X-Cache") != p.cache {
			t.Fatalf("%s: status %s X-Cache %q, want %s %q", p.name, got, rr.Header().Get("X-Cache"), p.status, p.cache)
		}
	}
	id := createSession(t, h, `{"fabric":"spartan-like-24x16","region":{"x":0,"y":0,"w":8,"h":12}}`)
	if resp, rr := sessionPlace(t, h, id, 1, clbModuleJSON("m", 4, 4)); rr.Code != http.StatusOK || !resp.Placed {
		t.Fatalf("session place: status %d body %s", rr.Code, rr.Body)
	}
	if rr := do(t, h, "POST", "/v1/sessions/"+id+"/defrag", ""); rr.Code != http.StatusOK {
		t.Fatalf("defrag: status %d body %s", rr.Code, rr.Body)
	}

	samples := scrape(t, h)
	st := s.Stats()
	if st.Requests != int64(len(places))+3 || st.Solves != 1 {
		t.Fatalf("stats after the mix: %+v", st)
	}
	for name, want := range map[string]int64{
		"service_request_seconds_count":        st.Requests,
		"service_canonicalize_seconds_count":   int64(len(places)),
		"service_cache_lookup_seconds_count":   int64(len(places)) - 1,
		"service_singleflight_seconds_count":   st.Solves,
		"service_queue_wait_seconds_count":     st.Solves,
		"service_solve_seconds_count":          st.Solves,
		"service_session_create_seconds_count": 1,
		"service_session_place_seconds_count":  1,
		"service_session_defrag_seconds_count": 1,
	} {
		if got := samples[name]; got != strconv.FormatInt(want, 10) {
			t.Errorf("/metrics %s = %q, want %d", name, got, want)
		}
	}
	if got := samples["service_requests_total"]; got != strconv.FormatInt(st.Requests, 10) {
		t.Errorf("/metrics service_requests_total = %q, want %d", got, st.Requests)
	}

	traces := map[string]obs.TraceSummary{}
	for _, ts := range tracesSnapshot(t, h).Recent {
		traces[ts.TraceID] = ts
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != int(st.Requests) {
		t.Fatalf("access log has %d lines for %d requests", len(lines), st.Requests)
	}
	solved := 0
	for _, line := range lines {
		var rec AccessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		ts, ok := traces[rec.TraceID]
		if !ok {
			t.Fatalf("access-log trace %s not in /debug/traces", rec.TraceID)
		}
		spans := spanNames(ts)
		solve := spans["solve"].DurMs + spans["session_place"].DurMs + spans["session_defrag"].DurMs
		if rec.DurMs != ts.DurMs || rec.QueueMs != spans["queue_wait"].DurMs || rec.SolveMs != solve {
			t.Errorf("%s %s: access log durMs/queueMs/solveMs %v/%v/%v, trace spans %+v",
				rec.Method, rec.Path, rec.DurMs, rec.QueueMs, rec.SolveMs, ts)
		}
		if rec.Cache == "miss" && rec.SolveMs > 0 {
			solved++
		}
	}
	if solved != 1 {
		t.Errorf("%d access-log lines report a solve time, want the miss's 1", solved)
	}
}

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// clbModuleJSON renders a WxH all-CLB module spec in wire form.
func clbModuleJSON(name string, w, h int) string {
	var tiles []string
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tiles = append(tiles, fmt.Sprintf(`{"x":%d,"y":%d,"kind":"CLB"}`, x, y))
		}
	}
	return fmt.Sprintf(`{"name":%q,"shapes":[{"tiles":[%s]}]}`, name, strings.Join(tiles, ","))
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, rd))
	return rr
}

// createSession POSTs /v1/sessions and returns the session id.
func createSession(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	rr := do(t, h, "POST", "/v1/sessions", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("create session: status %d body %s", rr.Code, rr.Body)
	}
	var info SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Session == "" {
		t.Fatalf("empty session id: %s", rr.Body)
	}
	return info.Session
}

func sessionPlace(t *testing.T, h http.Handler, id string, task int64, modJSON string) (SessionPlaceResponse, *httptest.ResponseRecorder) {
	t.Helper()
	body := fmt.Sprintf(`{"task":%d,"module":%s}`, task, modJSON)
	rr := do(t, h, "POST", "/v1/sessions/"+id+"/place", body)
	var resp SessionPlaceResponse
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rr
}

// TestSessionLifecycleAndDefrag is the end-to-end round trip the smoke
// script mirrors: create a session, fragment it, defragment it over
// HTTP — the moves must be priced and the fragmentation metric must
// drop — then place into the compacted space and tear the session down.
func TestSessionLifecycleAndDefrag(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	id := createSession(t, h, `{"fabric":"spartan-like-24x16","region":{"x":0,"y":0,"w":8,"h":12},"replan":{"stallNodes":200}}`)

	// First-fit layout, then free the middle-left block: the free space
	// becomes an L (two 4x4 holes inside the occupied span).
	specs := []struct {
		task int64
		w, h int
	}{{1, 8, 4}, {2, 4, 4}, {3, 4, 4}, {4, 4, 4}}
	for _, sp := range specs {
		resp, rr := sessionPlace(t, h, id, sp.task, clbModuleJSON("m", sp.w, sp.h))
		if rr.Code != http.StatusOK || !resp.Placed || resp.Replanned {
			t.Fatalf("seed %d: status %d %+v body %s", sp.task, rr.Code, resp, rr.Body)
		}
		if resp.W != sp.w || resp.H != sp.h || resp.ReconfigMs <= 0 {
			t.Fatalf("seed %d: implausible placement %+v", sp.task, resp)
		}
		if got := rr.Header().Get("X-Placement-Quality"); got != QualityExact {
			t.Fatalf("seed %d: quality %q", sp.task, got)
		}
	}
	rr := do(t, h, "DELETE", "/v1/sessions/"+id+"/modules/2", "")
	var rel SessionReleaseResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &rel); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusOK || !rel.Released {
		t.Fatalf("release: status %d %+v", rr.Code, rel)
	}
	// Releasing again is idempotent: 200 with released=false.
	rr = do(t, h, "DELETE", "/v1/sessions/"+id+"/modules/2", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &rel); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusOK || rel.Released {
		t.Fatalf("double release: status %d %+v", rr.Code, rel)
	}

	rr = do(t, h, "GET", "/v1/sessions/"+id+"/stats", "")
	var before SessionStatsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	if before.Residents != 3 || before.OccupiedTiles != 64 || len(before.Residency) != 3 {
		t.Fatalf("stats before defrag: %+v", before)
	}
	if before.Fragmentation <= 0 {
		t.Fatalf("L-shaped free space not fragmented: %+v", before)
	}

	rr = do(t, h, "POST", "/v1/sessions/"+id+"/defrag", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("defrag: status %d body %s", rr.Code, rr.Body)
	}
	var df SessionDefragResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &df); err != nil {
		t.Fatal(err)
	}
	if len(df.Moves) == 0 || df.FragAfter >= df.FragBefore || df.ReconfigMs <= 0 {
		t.Fatalf("defrag did not compact: %+v", df)
	}
	for _, mv := range df.Moves {
		if mv.Frames <= 0 || mv.ReconfigMs <= 0 {
			t.Fatalf("unpriced move: %+v", mv)
		}
	}

	// The stats endpoint must report the drop, not just the defrag
	// response.
	rr = do(t, h, "GET", "/v1/sessions/"+id+"/stats", "")
	var after SessionStatsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Fragmentation >= before.Fragmentation || after.Defrags != 1 || after.Moves == 0 {
		t.Fatalf("stats after defrag: %+v (before %+v)", after, before)
	}

	// The compacted layout frees an 8x4 strip: greedy placement must
	// take it without a replan.
	resp, rr2 := sessionPlace(t, h, id, 5, clbModuleJSON("top", 8, 4))
	if rr2.Code != http.StatusOK || !resp.Placed || resp.Replanned {
		t.Fatalf("compacted space unusable: status %d %+v", rr2.Code, resp)
	}

	st := s.Stats()
	if st.Sessions != 1 || st.SessionsCreated != 1 || st.SessionDefrags != 1 {
		t.Fatalf("server stats: %+v", st)
	}

	rr = do(t, h, "DELETE", "/v1/sessions/"+id, "")
	if rr.Code != http.StatusOK {
		t.Fatalf("delete session: status %d", rr.Code)
	}
	if rr = do(t, h, "GET", "/v1/sessions/"+id+"/stats", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("stats after delete: status %d", rr.Code)
	}
	if s.Stats().Sessions != 0 {
		t.Fatalf("session count after delete: %+v", s.Stats())
	}
}

// TestSessionReplanOverHTTP drives the blocked-arrival path end to end:
// greedy placement cannot site the wide module, so the response must
// carry replanned=true plus a priced relocation schedule.
func TestSessionReplanOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	id := createSession(t, h, `{"fabric":"spartan-like-24x16","region":{"x":0,"y":0,"w":16,"h":4},"replan":{"stallNodes":200}}`)
	for task := int64(1); task <= 4; task++ {
		if resp, rr := sessionPlace(t, h, id, task, clbModuleJSON("m", 4, 4)); rr.Code != http.StatusOK || !resp.Placed {
			t.Fatalf("seed %d: status %d body %s", task, rr.Code, rr.Body)
		}
	}
	do(t, h, "DELETE", "/v1/sessions/"+id+"/modules/2", "")
	do(t, h, "DELETE", "/v1/sessions/"+id+"/modules/4", "")

	resp, rr := sessionPlace(t, h, id, 5, clbModuleJSON("wide", 8, 4))
	if rr.Code != http.StatusOK || !resp.Placed || !resp.Replanned {
		t.Fatalf("replan place: status %d %+v body %s", rr.Code, resp, rr.Body)
	}
	if len(resp.Moves) == 0 {
		t.Fatalf("replanned without moves: %+v", resp)
	}
	for _, mv := range resp.Moves {
		if mv.Frames <= 0 || mv.ReconfigMs <= 0 {
			t.Fatalf("unpriced move: %+v", mv)
		}
	}
	if s.Stats().SessionReplans != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestSessionValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"unknown fabric", "POST", "/v1/sessions", `{"fabric":"nope"}`, http.StatusBadRequest},
		{"missing fabric", "POST", "/v1/sessions", `{}`, http.StatusBadRequest},
		{"unknown manager", "POST", "/v1/sessions", `{"fabric":"spartan-like-24x16","manager":"nope"}`, http.StatusBadRequest},
		{"zero region", "POST", "/v1/sessions", `{"fabric":"spartan-like-24x16","region":{"x":0,"y":0,"w":0,"h":4}}`, http.StatusBadRequest},
		{"unknown session place", "POST", "/v1/sessions/deadbeef/place", `{"task":1,"module":` + clbModuleJSON("m", 2, 2) + `}`, http.StatusNotFound},
		{"unknown session stats", "GET", "/v1/sessions/deadbeef/stats", "", http.StatusNotFound},
		{"unknown session defrag", "POST", "/v1/sessions/deadbeef/defrag", "", http.StatusNotFound},
		{"unknown session release", "DELETE", "/v1/sessions/deadbeef/modules/1", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		if rr := do(t, h, tc.method, tc.path, tc.body); rr.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rr.Code, tc.status, rr.Body)
		}
	}

	id := createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	if _, rr := sessionPlace(t, h, id, -1, clbModuleJSON("m", 2, 2)); rr.Code != http.StatusBadRequest {
		t.Fatalf("negative task: status %d", rr.Code)
	}
	if rr := do(t, h, "POST", "/v1/sessions/"+id+"/place", `{"task":1}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("missing module: status %d", rr.Code)
	}
	if _, rr := sessionPlace(t, h, id, 1, clbModuleJSON("m", 2, 2)); rr.Code != http.StatusOK {
		t.Fatalf("place: status %d", rr.Code)
	}
	if _, rr := sessionPlace(t, h, id, 1, clbModuleJSON("m", 2, 2)); rr.Code != http.StatusConflict {
		t.Fatalf("duplicate task: status %d", rr.Code)
	}
	if rr := do(t, h, "DELETE", "/v1/sessions/"+id+"/modules/x", ""); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad task id: status %d", rr.Code)
	}
}

// TestSessionTraceHeaders checks that session endpoints join the same
// tracing machinery as /v1/place: ids are minted per request and a
// well-formed client id is honoured for correlation.
func TestSessionTraceHeaders(t *testing.T) {
	s := newTestServer(t, Config{Tracer: obs.NewTracer(obs.TracerConfig{})})
	h := s.Handler()
	rr := do(t, h, "POST", "/v1/sessions", `{"fabric":"spartan-like-24x16"}`)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Trace-Id") == "" {
		t.Fatalf("create: status %d trace %q", rr.Code, rr.Header().Get("X-Trace-Id"))
	}
	var info SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}

	want := obs.NewTraceID().String()
	req := httptest.NewRequest("POST", "/v1/sessions/"+info.Session+"/place",
		strings.NewReader(`{"task":1,"module":`+clbModuleJSON("m", 2, 2)+`}`))
	req.Header.Set("X-Trace-Id", want)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Trace-Id") != want {
		t.Fatalf("place: status %d trace %q, want %q", rec.Code, rec.Header().Get("X-Trace-Id"), want)
	}
	// Errors carry the header too: a 404 stays correlatable.
	rr = do(t, h, "GET", "/v1/sessions/bogus/stats", "")
	if rr.Code != http.StatusNotFound || rr.Header().Get("X-Trace-Id") == "" {
		t.Fatalf("404 without trace id: status %d", rr.Code)
	}
}

// TestSessionFaultInjection exercises the chaos mapping: an injected
// session error answers 503, an injected defrag timeout 504, and the
// fires show up in /v1/stats.
func TestSessionFaultInjection(t *testing.T) {
	inj, err := faultinject.Parse("session:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Faults: inj})
	if rr := do(t, s.Handler(), "POST", "/v1/sessions", `{"fabric":"spartan-like-24x16"}`); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("injected session error: status %d body %s", rr.Code, rr.Body)
	}
	if s.Stats().Faults["session:error"] != 1 {
		t.Fatalf("fault stats: %+v", s.Stats().Faults)
	}

	inj, err = faultinject.Parse("defrag:timeout:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	s = newTestServer(t, Config{Faults: inj})
	h := s.Handler()
	id := createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	if rr := do(t, h, "POST", "/v1/sessions/"+id+"/defrag", ""); rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("injected defrag timeout: status %d", rr.Code)
	}
}

// TestSessionSaturationShedsOrDegrades pins the admission policy for
// inline session solves: with every solver slot taken, a place request
// is shed with 429 by default and served greedy-only (tagged
// approximate) when degradation is on.
func TestSessionSaturationShedsOrDegrades(t *testing.T) {
	saturate := func(s *Server) func() {
		for i := 0; i < cap(s.sessionGate.slots); i++ {
			s.sessionGate.slots <- struct{}{}
		}
		return func() {
			for i := 0; i < cap(s.sessionGate.slots); i++ {
				<-s.sessionGate.slots
			}
		}
	}

	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	id := createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	release := saturate(s)
	_, rr := sessionPlace(t, h, id, 1, clbModuleJSON("m", 2, 2))
	if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("saturated place: status %d Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
	}
	if rr = do(t, h, "POST", "/v1/sessions/"+id+"/defrag", ""); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated defrag: status %d", rr.Code)
	}
	release()

	s = newTestServer(t, Config{Workers: 1, Degrade: true})
	h = s.Handler()
	id = createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	release = saturate(s)
	resp, rr2 := sessionPlace(t, h, id, 1, clbModuleJSON("m", 2, 2))
	release()
	if rr2.Code != http.StatusOK || !resp.Placed {
		t.Fatalf("degraded place: status %d %+v", rr2.Code, resp)
	}
	if got := rr2.Header().Get("X-Placement-Quality"); got != QualityApproximate {
		t.Fatalf("degraded place quality %q", got)
	}
	if resp.Quality != QualityApproximate {
		t.Fatalf("degraded place body quality %q", resp.Quality)
	}
	if s.Stats().Degraded != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestSessionStoreTTLAndLRU unit-tests the store against a fake clock:
// capacity evicts least-recently-used, idleness expires lazily.
func TestSessionStoreTTLAndLRU(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	st := newSessionStore(2, time.Minute, clock)

	mk := func(id string) *session { return &session{id: id} }
	st.add(mk("a"))
	st.add(mk("b"))
	if sess, _ := st.get("a"); sess == nil { // bump a: b becomes LRU
		t.Fatal("a missing")
	}
	if _, evicted := st.add(mk("c")); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if sess, _ := st.get("b"); sess != nil {
		t.Fatal("LRU victim b still present")
	}
	if sess, _ := st.get("a"); sess == nil {
		t.Fatal("recently used a evicted")
	}

	now = now.Add(61 * time.Second)
	sess, expired := st.get("a")
	if sess != nil || expired != 2 {
		t.Fatalf("after TTL: sess %v expired %d, want nil, 2", sess, expired)
	}
	if st.len() != 0 {
		t.Fatalf("len = %d after expiry", st.len())
	}

	st.add(mk("d")) // the store stays usable after expiry
	if st.len() != 1 {
		t.Fatalf("len = %d", st.len())
	}
	if st.remove("d") != true || st.remove("d") != false {
		t.Fatal("remove not idempotent")
	}
}

// TestSessionEvictionOverHTTP pins the capacity behaviour end to end:
// with MaxSessions 1, creating a second session evicts the first.
func TestSessionEvictionOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 1})
	h := s.Handler()
	first := createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	_ = createSession(t, h, `{"fabric":"spartan-like-24x16"}`)
	if rr := do(t, h, "GET", "/v1/sessions/"+first+"/stats", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("evicted session answered: status %d", rr.Code)
	}
	st := s.Stats()
	if st.Sessions != 1 || st.SessionsEvicted != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

package service

import (
	"container/list"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/online"
)

// The session API is the daemon's online serving mode: where /v1/place
// solves one stateless batch, a session is a long-lived fabric with
// modules arriving and departing over time. Each session owns an
// online.State (shadow occupancy + resident set) guarded by a
// per-session mutex; the store evicts sessions idle past the TTL and,
// at capacity, the least recently used.
//
// Session solves (the CP replan behind a blocked arrival, the
// compaction behind /defrag) deliberately do NOT run on a detached
// /v1/place leader: a detached solve may outlive its request, which is
// exactly wrong for an operation that mutates session state — the
// client must observe the true outcome. They run inline instead, each
// holding a slot of sessionGate, a second gate of Workers slots that is
// never waited for (TryAcquire). When it is saturated a place request
// degrades to the greedy-only path (X-Placement-Quality: approximate)
// if degradation is enabled, and is shed with 429 otherwise.

// session is one live fabric. mu serialises all State access; lastUsed
// and elem belong to the store and are guarded by the store's lock.
type session struct {
	id     string
	fabric string

	mu    sync.Mutex
	state *online.State

	lastUsed time.Time
	elem     *list.Element
}

// sessionStore is the TTL+LRU session table. Eviction is lazy — swept
// on every add/get under the store lock — so the store needs no
// background goroutine and cannot leak one.
type sessionStore struct {
	mu   sync.Mutex
	max  int
	ttl  time.Duration
	now  func() time.Time
	byID map[string]*session
	lru  *list.List // front = most recently used
}

func newSessionStore(max int, ttl time.Duration, now func() time.Time) *sessionStore {
	if now == nil {
		now = time.Now
	}
	return &sessionStore{
		max:  max,
		ttl:  ttl,
		now:  now,
		byID: map[string]*session{},
		lru:  list.New(),
	}
}

// sweep drops expired sessions; the caller holds st.mu.
func (st *sessionStore) sweep(now time.Time) (expired int) {
	for {
		back := st.lru.Back()
		if back == nil {
			break
		}
		sess := back.Value.(*session)
		if now.Sub(sess.lastUsed) <= st.ttl {
			break
		}
		st.lru.Remove(back)
		delete(st.byID, sess.id)
		expired++
	}
	return expired
}

// add registers a new session, evicting expired sessions and — at
// capacity — the least recently used live one.
func (st *sessionStore) add(sess *session) (expired, evicted int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	expired = st.sweep(now)
	for st.lru.Len() >= st.max {
		back := st.lru.Back()
		old := back.Value.(*session)
		st.lru.Remove(back)
		delete(st.byID, old.id)
		evicted++
	}
	sess.lastUsed = now
	sess.elem = st.lru.PushFront(sess)
	st.byID[sess.id] = sess
	return expired, evicted
}

// get returns the session and bumps its recency; a missing or expired
// id returns (nil, expired-count).
func (st *sessionStore) get(id string) (*session, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	expired := st.sweep(now)
	sess, ok := st.byID[id]
	if !ok {
		return nil, expired
	}
	sess.lastUsed = now
	st.lru.MoveToFront(sess.elem)
	return sess, expired
}

// remove deletes a session; false when it was not present.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.byID[id]
	if !ok {
		return false
	}
	st.lru.Remove(sess.elem)
	delete(st.byID, id)
	return true
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// SessionCreateRequest is the wire form of POST /v1/sessions.
type SessionCreateRequest struct {
	// Fabric names a catalog device (required).
	Fabric string `json:"fabric"`
	// Region optionally windows the device.
	Region *RectSpec `json:"region,omitempty"`
	// Manager selects the greedy policy: "first-fit" (default),
	// "mer-best-fit", or "occupied-space"/"adjacency".
	Manager string `json:"manager,omitempty"`
	// UseAlternatives lets the greedy policy pick among design
	// alternatives.
	UseAlternatives bool `json:"useAlternatives,omitempty"`
	// Replan budgets the CP solves behind replanning and
	// defragmentation; zero fields take the daemon defaults.
	Replan OptionsSpec `json:"replan"`
}

// SessionInfo is the wire form of a created session.
type SessionInfo struct {
	Session string `json:"session"`
	Fabric  string `json:"fabric"`
	Manager string `json:"manager"`
	W       int    `json:"w"`
	H       int    `json:"h"`
}

// SessionPlaceRequest is the wire form of POST /v1/sessions/{id}/place.
// The module is always explicit — the client must know the shapes it
// asked for, because the session contract lets it revalidate every
// placement against its own shadow occupancy.
type SessionPlaceRequest struct {
	// Task is the client-chosen id for this module instance; release
	// refers to it. Must be non-negative and not currently resident.
	Task   int64       `json:"task"`
	Module *ModuleSpec `json:"module"`
}

// MoveSpec is one relocation of a replan or defrag schedule, priced by
// the fabric's frame model.
type MoveSpec struct {
	Task       int64   `json:"task"`
	Shape      int     `json:"shape"`
	X          int     `json:"x"`
	Y          int     `json:"y"`
	Frames     int     `json:"frames"`
	ReconfigMs float64 `json:"reconfigMs"`
}

// SessionPlaceResponse is the wire form of a place outcome. Placed
// false with status 200 is a capacity rejection: the fabric cannot
// take the module even after replanning.
type SessionPlaceResponse struct {
	Session string `json:"session"`
	Task    int64  `json:"task"`
	Placed  bool   `json:"placed"`
	Shape   int    `json:"shape"`
	X       int    `json:"x"`
	Y       int    `json:"y"`
	W       int    `json:"w"`
	H       int    `json:"h"`
	// Replanned reports that greedy placement failed and a CP replan
	// relocated residents to admit the module; Moves lists those
	// relocations in apply order.
	Replanned  bool       `json:"replanned,omitempty"`
	Moves      []MoveSpec `json:"moves,omitempty"`
	ReconfigMs float64    `json:"reconfigMs"`
	// Quality is "approximate" when solver saturation degraded this
	// request to greedy-only placement (no replan fallback).
	Quality string `json:"quality,omitempty"`
}

// SessionReleaseResponse is the wire form of a module release.
type SessionReleaseResponse struct {
	Session string `json:"session"`
	Task    int64  `json:"task"`
	// Released is false when the task was not resident — releasing is
	// idempotent, so a retried DELETE is a 200, not an error.
	Released bool `json:"released"`
}

// SessionDefragResponse is the wire form of a compaction pass.
type SessionDefragResponse struct {
	Session    string     `json:"session"`
	Moves      []MoveSpec `json:"moves"`
	ReconfigMs float64    `json:"reconfigMs"`
	FragBefore float64    `json:"fragBefore"`
	FragAfter  float64    `json:"fragAfter"`
}

// SessionResident is one resident module in a stats response.
type SessionResident struct {
	Task   int64  `json:"task"`
	Module string `json:"module"`
	Shape  int    `json:"shape"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	W      int    `json:"w"`
	H      int    `json:"h"`
}

// SessionStatsResponse is the wire form of GET /v1/sessions/{id}/stats.
type SessionStatsResponse struct {
	Session       string  `json:"session"`
	Fabric        string  `json:"fabric"`
	Manager       string  `json:"manager"`
	Residents     int     `json:"residents"`
	OccupiedTiles int     `json:"occupiedTiles"`
	Utilization   float64 `json:"utilization"`
	// Fragmentation is the free-space fragmentation metric in the
	// occupied span: 0 means the free space is one solid rectangle,
	// values toward 1 mean it is badly scattered.
	Fragmentation float64           `json:"fragmentation"`
	Placed        int               `json:"placed"`
	Rejected      int               `json:"rejected"`
	Replans       int               `json:"replans"`
	Defrags       int               `json:"defrags"`
	Moves         int               `json:"moves"`
	ReconfigMs    float64           `json:"reconfigMs"`
	Residency     []SessionResident `json:"residency"`
}

// ModuleSpecFor renders a module back into wire form — the bridge
// session clients (cmd/loadgen) use to send generated modules as
// explicit specs they can later revalidate against.
func ModuleSpecFor(m *module.Module) ModuleSpec {
	spec := ModuleSpec{Name: m.Name(), Shapes: make([]ShapeSpec, m.NumShapes())}
	for i := 0; i < m.NumShapes(); i++ {
		tiles := m.Shape(i).Tiles()
		ss := ShapeSpec{Tiles: make([]TileSpec, len(tiles))}
		for j, t := range tiles {
			ss.Tiles[j] = TileSpec{X: t.At.X, Y: t.At.Y, Kind: t.Kind.String()}
		}
		spec.Shapes[i] = ss
	}
	return spec
}

// checkSessionFault evaluates a fault site on the session path and
// writes the mapped failure (injected error → 503 unavailable backend,
// injected timeout → 504 lock/budget miss) after imposing any injected
// latency. True means the fault consumed the request.
func (s *Server) checkSessionFault(w http.ResponseWriter, out *placeOutcome, site faultinject.Site) bool {
	fault := s.faults.Check(site)
	if fault.Delay > 0 {
		time.Sleep(fault.Delay)
	}
	switch {
	case fault.Err != nil:
		s.failPlace(w, out, http.StatusServiceUnavailable, fmt.Errorf("session backend unavailable (%s)", site))
		return true
	case fault.Timeout:
		s.failPlace(w, out, http.StatusGatewayTimeout, fmt.Errorf("session operation timed out (%s)", site))
		return true
	}
	return false
}

// lookupSession resolves {id} from the request path, bumping recency;
// a missing or expired session answers 404.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request, out *placeOutcome) *session {
	id := r.PathValue("id")
	sess, expired := s.sessions.get(id)
	s.sessExpired.Add(int64(expired))
	if sess == nil {
		s.failPlace(w, out, http.StatusNotFound, fmt.Errorf("unknown session %q (expired or never created)", id))
		return nil
	}
	return sess
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	if s.checkSessionFault(w, out, faultinject.SiteSession) {
		return
	}
	var wire SessionCreateRequest
	if err := parse(r.Body, r.ContentLength, &wire); err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}
	if wire.Fabric == "" {
		s.failPlace(w, out, http.StatusBadRequest, fmt.Errorf("missing fabric"))
		return
	}
	dev, err := fabric.ByName(wire.Fabric)
	if err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}
	region := dev.FullRegion()
	if wire.Region != nil {
		if wire.Region.W <= 0 || wire.Region.H <= 0 {
			s.failPlace(w, out, http.StatusBadRequest,
				fmt.Errorf("region %dx%d must have positive size", wire.Region.W, wire.Region.H))
			return
		}
		region = dev.Region(grid.RectXYWH(wire.Region.X, wire.Region.Y, wire.Region.W, wire.Region.H))
		if region.W() <= 0 || region.H() <= 0 {
			s.failPlace(w, out, http.StatusBadRequest, fmt.Errorf("region lies outside fabric %s", wire.Fabric))
			return
		}
	}
	replan, err := wire.Replan.toRequestOptions(s.cfg)
	if err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}
	state, err := online.NewState(region, online.StateConfig{
		Manager:         wire.Manager,
		UseAlternatives: wire.UseAlternatives,
		Replan:          replan.Options(),
	})
	if err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}
	sess := &session{
		id:     obs.NewTraceID().String(),
		fabric: wire.Fabric,
		state:  state,
	}
	expired, evicted := s.sessions.add(sess)
	s.sessExpired.Add(int64(expired))
	s.sessEvicted.Add(int64(evicted))
	s.sessCreated.Inc()
	s.end(tr.StartSpan("session_create"), obs.String("session", sess.id), obs.String("manager", state.ManagerName()))
	writeJSON(w, http.StatusOK, SessionInfo{
		Session: sess.id,
		Fabric:  wire.Fabric,
		Manager: state.ManagerName(),
		W:       region.W(),
		H:       region.H(),
	})
}

func (s *Server) handleSessionPlace(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	if s.checkSessionFault(w, out, faultinject.SiteSession) {
		return
	}
	sess := s.lookupSession(w, r, out)
	if sess == nil {
		return
	}
	var wire sessionPlaceWire
	if err := parse(r.Body, r.ContentLength, &wire); err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}
	if wire.task < 0 {
		s.failPlace(w, out, http.StatusBadRequest, fmt.Errorf("negative task id %d", wire.task))
		return
	}
	if wire.module == nil {
		s.failPlace(w, out, http.StatusBadRequest, fmt.Errorf("place request needs a module"))
		return
	}
	mod, err := wire.module.build()
	if err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	id := online.TaskID(wire.task)
	if _, resident := sess.state.Resident(id); resident {
		s.failPlace(w, out, http.StatusConflict, fmt.Errorf("task %d already resident in session", wire.task))
		return
	}

	quality := QualityExact
	var result online.PlaceOutcome
	sp := tr.StartSpan("session_place")
	if s.sessionGate.TryAcquire() {
		// The inline solve deliberately runs under the session lock:
		// the whole point of a session is that its mutations are
		// serialised, and the session gate bounds how many such
		// solves run at once. Responses are also written under the
		// lock so the answer reflects exactly the state the client's
		// shadow will replay.
		//solverlint:allow lockscope per-session serialisation is the contract; concurrency is bounded by sessionGate, not by shortening this critical section
		result, err = sess.state.Place(id, mod)
		s.sessionGate.Release()
	} else if s.cfg.Degrade {
		// Solver capacity is saturated: fall back to the greedy-only
		// path. A greedy decision costs microseconds and needs no
		// solver slot; the client loses only the replan fallback.
		quality = QualityApproximate
		result, err = sess.state.PlaceGreedy(id, mod)
		s.degraded.Inc()
	} else {
		s.end(sp, obs.String("error", "shed"))
		s.rejected.Inc()
		//solverlint:allow lockscope in-memory response writer; writing under the session lock keeps the answer consistent with the state the client replays
		w.Header().Set("Retry-After", "1")
		s.failPlace(w, out, http.StatusTooManyRequests, fmt.Errorf("session solver capacity saturated, retry later"))
		return
	}
	sp.SetAttrs(
		obs.Bool("placed", result.Placed),
		obs.Bool("replanned", result.Replanned),
		obs.Int("moves", int64(len(result.Moves))),
	)
	if err != nil {
		sp.SetAttrs(obs.String("error", err.Error()))
	}
	s.end(sp)
	if err != nil {
		// Input errors were screened above; what remains is an internal
		// invariant violation (manager/shadow disagreement).
		s.errCount.Inc()
		s.failPlace(w, out, http.StatusInternalServerError, err)
		return
	}
	if result.Replanned {
		s.sessReplans.Inc()
	}
	out.quality = ""
	if quality != QualityExact {
		out.quality = quality
	}
	resp := SessionPlaceResponse{
		Session:    sess.id,
		Task:       wire.task,
		Placed:     result.Placed,
		Replanned:  result.Replanned,
		Moves:      moveSpecs(result.Moves),
		ReconfigMs: float64(result.Reconfig.Microseconds()) / 1e3,
	}
	if quality != QualityExact {
		resp.Quality = quality
	}
	if result.Placed {
		shape := mod.Shape(result.Placement.Shape)
		resp.Shape = result.Placement.Shape
		resp.X = result.Placement.At.X
		resp.Y = result.Placement.At.Y
		resp.W = shape.W()
		resp.H = shape.H()
	}
	//solverlint:allow lockscope in-memory response writer; writing under the session lock keeps the answer consistent with the state the client replays
	w.Header().Set("X-Placement-Quality", quality)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionRelease(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	if s.checkSessionFault(w, out, faultinject.SiteSession) {
		return
	}
	sess := s.lookupSession(w, r, out)
	if sess == nil {
		return
	}
	task, err := strconv.ParseInt(r.PathValue("task"), 10, 64)
	if err != nil {
		s.failPlace(w, out, http.StatusBadRequest, fmt.Errorf("bad task id %q", r.PathValue("task")))
		return
	}
	sess.mu.Lock()
	released := sess.state.Release(online.TaskID(task))
	sess.mu.Unlock()
	s.end(tr.StartSpan("session_release"), obs.Bool("released", released))
	writeJSON(w, http.StatusOK, SessionReleaseResponse{Session: sess.id, Task: task, Released: released})
}

func (s *Server) handleSessionDefrag(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	if s.checkSessionFault(w, out, faultinject.SiteSession) {
		return
	}
	if s.checkSessionFault(w, out, faultinject.SiteDefrag) {
		return
	}
	sess := s.lookupSession(w, r, out)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !s.sessionGate.TryAcquire() {
		s.rejected.Inc()
		//solverlint:allow lockscope in-memory response writer; writing under the session lock keeps the answer consistent with the state the client replays
		w.Header().Set("Retry-After", "1")
		s.failPlace(w, out, http.StatusTooManyRequests, fmt.Errorf("session solver capacity saturated, retry later"))
		return
	}
	sp := tr.StartSpan("session_defrag")
	result, err := sess.state.Defrag()
	s.sessionGate.Release()
	sp.SetAttrs(obs.Int("moves", int64(len(result.Moves))))
	if err != nil {
		sp.SetAttrs(obs.String("error", err.Error()))
	}
	s.end(sp)
	if err != nil {
		s.errCount.Inc()
		s.failPlace(w, out, http.StatusInternalServerError, err)
		return
	}
	s.sessDefrags.Inc()
	moves := moveSpecs(result.Moves)
	if moves == nil {
		moves = []MoveSpec{} // an empty schedule is "nothing to do", not null
	}
	writeJSON(w, http.StatusOK, SessionDefragResponse{
		Session:    sess.id,
		Moves:      moves,
		ReconfigMs: float64(result.Reconfig.Microseconds()) / 1e3,
		FragBefore: result.FragBefore,
		FragAfter:  result.FragAfter,
	})
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	if s.checkSessionFault(w, out, faultinject.SiteSession) {
		return
	}
	sess := s.lookupSession(w, r, out)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	st := sess.state.Stats()
	residents := sess.state.Residents()
	manager := sess.state.ManagerName()
	sess.mu.Unlock()
	residency := make([]SessionResident, 0, len(residents))
	for _, res := range residents {
		shape := res.Module.Shape(res.Shape)
		residency = append(residency, SessionResident{
			Task:   int64(res.ID),
			Module: res.Module.Name(),
			Shape:  res.Shape,
			X:      res.At.X,
			Y:      res.At.Y,
			W:      shape.W(),
			H:      shape.H(),
		})
	}
	writeJSON(w, http.StatusOK, SessionStatsResponse{
		Session:       sess.id,
		Fabric:        sess.fabric,
		Manager:       manager,
		Residents:     st.Residents,
		OccupiedTiles: st.OccupiedTiles,
		Utilization:   st.Utilization,
		Fragmentation: st.Fragmentation,
		Placed:        st.Placed,
		Rejected:      st.Rejected,
		Replans:       st.Replans,
		Defrags:       st.Defrags,
		Moves:         st.Moves,
		ReconfigMs:    float64(st.TotalReconfig.Microseconds()) / 1e3,
		Residency:     residency,
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	if s.checkSessionFault(w, out, faultinject.SiteSession) {
		return
	}
	id := r.PathValue("id")
	closed := s.sessions.remove(id)
	// Idempotent like module release: deleting a gone session is 200.
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "closed": closed})
}

func moveSpecs(moves []online.MoveCost) []MoveSpec {
	if len(moves) == 0 {
		return nil
	}
	out := make([]MoveSpec, len(moves))
	for i, mv := range moves {
		out[i] = MoveSpec{
			Task:       int64(mv.ID),
			Shape:      mv.Shape,
			X:          mv.At.X,
			Y:          mv.At.Y,
			Frames:     mv.Frames,
			ReconfigMs: float64(mv.Reconfig.Microseconds()) / 1e3,
		}
	}
	return out
}

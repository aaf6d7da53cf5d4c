package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/service"
	"repro/internal/workload"
)

// The session-churn mix, as cmd/loadgen -mode sessions drives it: small
// CLB-only modules with two alternatives on a homogeneous device, and a
// stall-bounded replan budget.
const (
	churnFabric = "spartan-like-24x16"
	statsEvery  = 20 // a stats call after every this many operations
	churnSetups = 3  // set-ups per run; each fills every session of the plan
)

var (
	churnManagers = []string{"first-fit", "mer-best-fit"}
	churnReplan   = service.OptionsSpec{StallNodes: 200, TimeoutMs: 5000}
)

type opKind int

const (
	opArrive opKind = iota
	opDepart
	opDefrag
	opStats
)

// churnOp is one session operation and the answer the measured run got.
type churnOp struct {
	kind   opKind
	task   int64
	mod    *module.Module
	spec   service.ModuleSpec
	answer string
}

// churnSession is the operation log of one session.
type churnSession struct {
	manager string
	ops     []churnOp
}

// shadow is the client's own copy of a session's occupancy. Every
// answer is replayed onto it through online.ValidatePlacement, the
// oracle the service audits itself with.
type shadow struct {
	region *fabric.Region
	occ    *grid.Bitmap
	res    map[int64]shadowResident
}

type shadowResident struct {
	mod *module.Module
	pts []grid.Point
}

func newShadow(region *fabric.Region) *shadow {
	return &shadow{region: region, occ: grid.NewBitmap(region.W(), region.H()), res: map[int64]shadowResident{}}
}

// admit validates and commits a newcomer.
func (s *shadow) admit(task int64, mod *module.Module, shape int, at grid.Point) error {
	pts, err := online.ValidatePlacement(s.region, s.occ, mod, online.Placement{Shape: shape, At: at})
	if err != nil {
		return fmt.Errorf("task %d fails shadow validation: %w", task, err)
	}
	s.occ.SetPoints(pts, true)
	s.res[task] = shadowResident{mod: mod, pts: pts}
	return nil
}

// move relocates a resident; the target must be free once the resident
// has vacated its own tiles.
func (s *shadow) move(mv moveKey) error {
	r, ok := s.res[mv.task]
	if !ok {
		return fmt.Errorf("move names unknown resident %d", mv.task)
	}
	s.occ.SetPoints(r.pts, false)
	delete(s.res, mv.task)
	return s.admit(mv.task, r.mod, mv.shape, grid.Pt(mv.x, mv.y))
}

func (s *shadow) release(task int64) bool {
	r, ok := s.res[task]
	if ok {
		s.occ.SetPoints(r.pts, false)
		delete(s.res, task)
	}
	return ok
}

func (s *shadow) ids() []int64 {
	ids := make([]int64, 0, len(s.res))
	for id := range s.res {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// cycleRefusal is how online.PlanCompaction refuses a compaction whose
// moves cannot be ordered without a staging location; the service
// passes it on as a 500 and leaves the session unchanged.
const cycleRefusal = "compaction blocked by a relocation cycle"

const refusedFingerprint = "defrag refused"

func refusedDefrag(status int, msg string) bool {
	return status == http.StatusInternalServerError && strings.Contains(msg, cycleRefusal)
}

// moveKey is one relocation as both the wire and online.State report it.
type moveKey struct {
	task        int64
	shape, x, y int
}

func placeFingerprint(placed bool, shape int, at grid.Point, replanned bool, moves []moveKey) string {
	return fmt.Sprintf("place %v %d %v %v %v", placed, shape, at, replanned, moves)
}

func statsFingerprint(residents, tiles, placed, rejected, replans, defrags, moves int) string {
	return fmt.Sprintf("stats %d %d %d %d %d %d %d", residents, tiles, placed, rejected, replans, defrags, moves)
}

// moveFrames sums the configuration frames a relocation schedule rewrites.
func moveFrames(moves []service.MoveSpec) int {
	n := 0
	for _, m := range moves {
		n += m.Frames
	}
	return n
}

func wireMoves(ms []service.MoveSpec) []moveKey {
	out := make([]moveKey, len(ms))
	for i, m := range ms {
		out[i] = moveKey{task: m.Task, shape: m.Shape, x: m.X, y: m.Y}
	}
	return out
}

func stateMoves(ms []online.MoveCost) []moveKey {
	out := make([]moveKey, len(ms))
	for i, m := range ms {
		out[i] = moveKey{task: int64(m.ID), shape: m.Shape, x: m.At.X, y: m.At.Y}
	}
	return out
}

// sessionClient drives sessions over HTTP. In the set-up and measured
// phases the operations are drawn as they go; in the traced run the
// recorded log is replayed and every answer must repeat the recorded one.
type sessionClient struct {
	c      *client
	region *fabric.Region
	e      *endToEnd
	tamper func([]byte) []byte
}

// create opens a session for the manager.
func (sc *sessionClient) create(manager string) (string, error) {
	body, err := json.Marshal(service.SessionCreateRequest{Fabric: churnFabric, Manager: manager, Replan: churnReplan})
	if err != nil {
		return "", err
	}
	rep, err := sc.c.do(http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return "", err
	}
	var info service.SessionInfo
	if rep.status != http.StatusOK || json.Unmarshal(rep.body, &info) != nil || info.Session == "" {
		return "", fmt.Errorf("create session: status %d: %s", rep.status, rep.body)
	}
	return info.Session, nil
}

// send sends one session request, counting it.
func (sc *sessionClient) send(method, path string, body []byte) (reply, bool) {
	sc.e.attempted++
	rep, err := sc.c.do(method, path, body)
	if err != nil {
		sc.e.fail("%s %s: %v", method, path, err)
		return rep, false
	}
	sc.e.calls++
	sc.e.busy += rep.latency
	return rep, true
}

// call is send for a request that must succeed.
func (sc *sessionClient) call(method, path string, body []byte) (reply, bool) {
	rep, ok := sc.send(method, path, body)
	if ok && rep.status != http.StatusOK {
		sc.e.fail("%s %s: status %d: %s", method, path, rep.status, rep.body)
		return rep, false
	}
	return rep, ok
}

// liveSession is a session open on the server, with the client's
// shadow of it. gen draws its operations into log, or is nil when log
// is replayed.
type liveSession struct {
	id   string
	log  *churnSession
	sh   *shadow
	gen  *rand.Rand
	n    int   // operations in all
	fill int   // how many of the first operations are arrivals
	done int   // operations run so far
	next int64 // next task id
}

// open creates a session for the log's manager.
func (sc *sessionClient) open(log *churnSession, gen *rand.Rand, n, fill int) (*liveSession, error) {
	id, err := sc.create(log.manager)
	if err != nil {
		return nil, err
	}
	if gen == nil {
		n = len(log.ops)
	}
	return &liveSession{id: id, log: log, sh: newShadow(sc.region), gen: gen, n: n, fill: fill}, nil
}

// drive runs the session's operations up to index to.
func (sc *sessionClient) drive(ls *liveSession, to int) {
	base := "/v1/sessions/" + ls.id
	for ; ls.done < to; ls.done++ {
		i := ls.done
		var op churnOp
		switch {
		case ls.gen == nil:
			op = ls.log.ops[i]
		case i%statsEvery == statsEvery-1 || i == ls.n-1:
			op = churnOp{kind: opStats}
		default:
			op = drawOp(ls.gen, ls.sh, &ls.next, i < ls.fill)
		}
		got := sc.exec(base, &op, ls.sh)
		if ls.gen != nil {
			op.answer = got
			ls.log.ops = append(ls.log.ops, op)
		} else if got != op.answer {
			sc.e.fail("replayed %s answered %q, measured run %q", base, got, op.answer)
		}
	}
}

// closeSession deletes the session.
func (sc *sessionClient) closeSession(ls *liveSession) {
	sc.call(http.MethodDelete, "/v1/sessions/"+ls.id, nil)
}

// drawOp draws the next operation of the mix: 55% arrivals, 35%
// departures of a random resident, 10% defragmentations; only arrivals
// while filling.
func drawOp(rng *rand.Rand, sh *shadow, nextTask *int64, filling bool) churnOp {
	r := rng.Float64()
	switch {
	case filling || r < 0.55 || len(sh.res) == 0:
		mods, err := workload.Generate(workload.Config{
			NumModules: 1, CLBMin: 4, CLBMax: 6, NoBRAM: true, Alternatives: 2,
		}, rng)
		if err != nil {
			panic(err) // fixed, valid config
		}
		task := *nextTask
		*nextTask++
		return churnOp{kind: opArrive, task: task, mod: mods[0], spec: service.ModuleSpecFor(mods[0])}
	case r < 0.90:
		ids := sh.ids()
		return churnOp{kind: opDepart, task: ids[rng.Intn(len(ids))]}
	default:
		return churnOp{kind: opDefrag}
	}
}

// exec sends one operation, checks the answer against the shadow and
// returns its fingerprint.
func (sc *sessionClient) exec(base string, op *churnOp, sh *shadow) string {
	e := sc.e
	switch op.kind {
	case opArrive:
		body, err := json.Marshal(service.SessionPlaceRequest{Task: op.task, Module: &op.spec})
		if err != nil {
			e.fail("marshal: %v", err)
			return ""
		}
		rep, ok := sc.call(http.MethodPost, base+"/place", body)
		if !ok {
			return ""
		}
		e.lat = append(e.lat, rep.latency)
		e.arrivals++
		b := rep.body
		if sc.tamper != nil {
			b = sc.tamper(b)
		}
		var resp service.SessionPlaceResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			e.fail("place %d: answer does not decode: %v", op.task, err)
			return ""
		}
		if !resp.Placed || resp.Replanned {
			e.blocked = append(e.blocked, rep.latency)
		}
		moves := wireMoves(resp.Moves)
		if resp.Placed {
			for _, mv := range moves {
				if err := sh.move(mv); err != nil {
					e.fail("place %d: %v", op.task, err)
					return ""
				}
			}
			if err := sh.admit(op.task, op.mod, resp.Shape, grid.Pt(resp.X, resp.Y)); err != nil {
				e.fail("place %d: %v", op.task, err)
				return ""
			}
			e.admitted++
			e.frames += moveFrames(resp.Moves) +
				fabric.DefaultFrameModel().FrameCount(sc.region, grid.RectXYWH(resp.X, resp.Y, resp.W, resp.H))
		}
		return placeFingerprint(resp.Placed, resp.Shape, grid.Pt(resp.X, resp.Y), resp.Replanned, moves)
	case opDepart:
		rep, ok := sc.call(http.MethodDelete, fmt.Sprintf("%s/modules/%d", base, op.task), nil)
		if !ok {
			return ""
		}
		var resp service.SessionReleaseResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil || !resp.Released || !sh.release(op.task) {
			e.fail("release %d: server and shadow disagree (%s)", op.task, rep.body)
		}
		return fmt.Sprintf("release %v", resp.Released)
	case opDefrag:
		rep, ok := sc.send(http.MethodPost, base+"/defrag", nil)
		if !ok {
			return ""
		}
		if refusedDefrag(rep.status, string(rep.body)) {
			// The session is unchanged; the next stats call checks that
			// against the shadow.
			e.refused++
			return refusedFingerprint
		}
		if rep.status != http.StatusOK {
			e.fail("defrag: status %d: %s", rep.status, rep.body)
			return ""
		}
		var resp service.SessionDefragResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			e.fail("defrag: answer does not decode: %v", err)
			return ""
		}
		moves := wireMoves(resp.Moves)
		for _, mv := range moves {
			if err := sh.move(mv); err != nil {
				e.fail("defrag: %v", err)
				return ""
			}
		}
		e.frames += moveFrames(resp.Moves)
		return fmt.Sprintf("defrag %v", moves)
	default:
		rep, ok := sc.call(http.MethodGet, base+"/stats", nil)
		if !ok {
			return ""
		}
		var st service.SessionStatsResponse
		if err := json.Unmarshal(rep.body, &st); err != nil {
			e.fail("stats: answer does not decode: %v", err)
			return ""
		}
		if st.Residents != len(sh.res) || st.OccupiedTiles != sh.occ.Count() {
			e.fail("stats: server %d residents / %d tiles, shadow %d / %d",
				st.Residents, st.OccupiedTiles, len(sh.res), sh.occ.Count())
		}
		e.util = append(e.util, st.Utilization)
		return statsFingerprint(st.Residents, st.OccupiedTiles, st.Placed, st.Rejected, st.Replans, st.Defrags, st.Moves)
	}
}

// churnSpec is one session of the churn corpus: the generator seed of
// its operations and its manager.
type churnSpec struct {
	script  int64
	manager string
}

// churnPlan orders the sessions of a run: every corpus script under
// every manager, in an order drawn from the workload seed, repeated to
// one session for every churnSpan of the run.
func churnPlan(cfg config) []churnSpec {
	rng := rand.New(rand.NewSource(cfg.seed))
	var corpus []churnSpec
	for _, script := range cfg.size.churnScripts {
		for _, m := range churnManagers {
			corpus = append(corpus, churnSpec{script: script, manager: m})
		}
	}
	n := max(len(corpus), int(cfg.seconds/cfg.size.churnSpan))
	var plan []churnSpec
	for len(plan) < n {
		rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
		plan = append(plan, corpus[:min(len(corpus), n-len(plan))]...)
	}
	return plan
}

// runChurn drives the sessions of the plan one after another from a
// single client. One client keeps the latencies free of the CPU a
// concurrent replan or compaction would take from them.
func runChurn(cfg config) (*outcome, error) {
	dev, err := fabric.ByName(churnFabric)
	if err != nil {
		return nil, err
	}
	region := dev.FullRegion()
	out := &outcome{}
	e := &out.e2e
	plan := churnPlan(cfg)

	// Set-up, several times: start the server, open every session of the
	// plan and run its first arrivals, which bring the device near
	// saturation. The last set-up's sessions run on.
	var srv *server
	var live []*liveSession
	var fill endToEnd // the last set-up's calls
	for i := 0; i < churnSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if srv, err = startServer(nil); err != nil {
			return nil, err
		}
		fill, live = endToEnd{}, nil
		sc := &sessionClient{c: newClient(srv.base), region: region, e: &fill}
		for _, spec := range plan {
			ls, err := sc.open(&churnSession{manager: spec.manager}, rand.New(rand.NewSource(spec.script)),
				cfg.size.churnOps, cfg.size.churnFill)
			if err != nil {
				sc.c.close()
				return nil, errors.Join(err, srv.stop())
			}
			sc.drive(ls, ls.fill)
			live = append(live, ls)
		}
		sc.c.close()
		e.setup = append(e.setup, time.Since(start).Seconds())
		e.attempted += fill.attempted
		e.failed += fill.failed
		e.errs = append(e.errs, fill.errs...)
	}

	// Measured phase: each session runs on to the end of its script.
	var phase endToEnd
	sc := &sessionClient{c: newClient(srv.base), region: region, e: &phase, tamper: cfg.tamper}
	alloc0 := totalAlloc()
	start := time.Now()
	for _, ls := range live {
		sc.drive(ls, ls.n)
		sc.closeSession(ls)
	}
	e.elapsed = time.Since(start)
	e.alloc = totalAlloc() - alloc0
	sc.c.close()
	stats := srv.svc.Stats()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	mergeInto(e, phase)

	if cfg.trace {
		sessions := make([]*churnSession, len(live))
		for i, ls := range live {
			sessions[i] = ls.log
		}
		// The traced run replays whole sessions, so its untraced
		// counterpart includes the last set-up's arrivals.
		if out.layers, err = traceChurn(sessions, region, fill.busy+phase.busy, stats, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// onlineTimes collects the direct online.State replay.
type onlineTimes struct {
	greedy, fallback, release, defrag, audit, mer, stats        []float64 // microseconds
	build, decode, anchors                                      []float64 // milliseconds
	replans, replanAdmits, defragMoves, defragRefused, merRects int
	total                                                       time.Duration
}

// traceChurn is the traced run of session-churn: every session's log is
// replayed over HTTP with tracing on, and directly on online.NewState
// with the same manager and replan options.
func traceChurn(sessions []*churnSession, region *fabric.Region, untraced time.Duration, stats service.StatsResponse, e *endToEnd) (map[string]float64, error) {
	srv, err := startServer(obs.NewTracer(obs.TracerConfig{}))
	if err != nil {
		return nil, err
	}
	handler0 := srv.handlerSeconds()
	var traced endToEnd
	sc := &sessionClient{c: newClient(srv.base), region: region, e: &traced}
	for _, s := range sessions {
		ls, err := sc.open(s, nil, 0, 0)
		if err != nil {
			traced.attempted++
			traced.fail("%v", err)
			continue
		}
		sc.drive(ls, ls.n)
		sc.closeSession(ls)
	}
	sc.c.close()
	handler := srv.handlerSeconds() - handler0
	if err := srv.stop(); err != nil {
		return nil, err
	}
	mergeInto(e, traced)

	replan, err := replanOptions()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	replan.Metrics = reg
	var t onlineTimes
	for _, s := range sessions {
		replayState(region, s, replan, &t, e)
	}

	e2e := ms(traced.busy)
	calls := float64(max(traced.calls, 1))
	ph := readPhases(reg)
	l := map[string]float64{
		"service.residual_ms":      (e2e - 1e3*handler) / calls,
		"service.decode_ms":        sum(t.decode) / calls,
		"module.build_ms":          sum(t.build) / calls,
		"core.valid_anchors_ms":    sum(t.anchors) / calls,
		"core.model_build_ms":      ph.modelBuild / calls,
		"presolve.ms":              ph.presolve / calls,
		"geost.propagation_ms":     ph.propagation / calls,
		"csp.search_self_ms":       (ph.search - ph.propagation) / calls,
		"csp.proof_ms":             ph.proof / calls,
		"online.place_greedy_us":   median(t.greedy),
		"online.place_fallback_ms": median(t.fallback) / 1e3,
		"online.release_us":        median(t.release),
		"online.defrag_ms":         median(t.defrag) / 1e3,
		"online.audit_us":          median(t.audit),
		"online.mer_us":            median(t.mer),
		"online.stats_us":          median(t.stats),
		"obs.tracing_overhead_pct": overheadPct(e2e, ms(untraced)),
	}
	if t.replans > 0 {
		l["online.replan_admit_ratio"] = float64(t.replanAdmits) / float64(t.replans)
	}
	if len(t.defrag) > 0 {
		l["online.defrag_moves"] = float64(t.defragMoves) / float64(len(t.defrag))
		l["online.defrag_refused_ratio"] = float64(t.defragRefused) / float64(len(t.defrag))
	}
	if len(t.mer) > 0 {
		l["online.mer_rects"] = float64(t.merRects) / float64(len(t.mer))
	}
	serviceLayers(l, stats)
	l["unaccounted_pct"] = unaccountedPct(e2e, e2e-1e3*handler, ms(t.total), sum(t.build), sum(t.decode))
	return l, nil
}

// replanOptions are the solver options a session created with
// churnReplan runs its replans and defrags with.
func replanOptions() (core.Options, error) {
	body, err := json.Marshal(service.PlaceRequest{Fabric: churnFabric, Generate: &service.GenerateSpec{}, Options: churnReplan})
	if err != nil {
		return core.Options{}, err
	}
	creq, err := decodedRequest(body)
	if err != nil {
		return core.Options{}, err
	}
	return creq.Options.Options(), nil
}

// replayState replays one session log directly on online.State, timing
// each call, and checks that every answer matches the HTTP run.
func replayState(region *fabric.Region, s *churnSession, replan core.Options, t *onlineTimes, e *endToEnd) {
	st, err := online.NewState(region, online.StateConfig{Manager: s.manager, Replan: replan})
	if err != nil {
		e.fail("direct session: %v", err)
		return
	}
	sh := newShadow(region)
	seen := map[string]bool{}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, op := range s.ops {
		var got string
		switch op.kind {
		case opArrive:
			if s.manager == "mer-best-fit" {
				start := time.Now()
				rects := online.MaximalEmptyRects(region, sh.occ)
				t.mer = append(t.mer, us(time.Since(start)))
				t.merRects += len(rects)
			}
			body, err := json.Marshal(service.SessionPlaceRequest{Task: op.task, Module: &op.spec})
			if err != nil {
				e.fail("marshal task %d: %v", op.task, err)
				return
			}
			var wire service.SessionPlaceRequest
			start := time.Now()
			err = json.Unmarshal(body, &wire)
			t.decode = append(t.decode, ms(time.Since(start)))
			if err != nil || wire.Module == nil {
				e.fail("decode task %d: %v", op.task, err)
				return
			}
			start = time.Now()
			mod, err := buildModule(*wire.Module)
			t.build = append(t.build, ms(time.Since(start)))
			if err != nil {
				e.fail("build task %d: %v", op.task, err)
				return
			}
			// A manager computes a shape's anchors when it first sees the
			// shape and caches them.
			for _, shape := range mod.Shapes() {
				if !seen[shape.Key()] {
					seen[shape.Key()] = true
					start = time.Now()
					core.ValidAnchors(region, shape)
					t.anchors = append(t.anchors, ms(time.Since(start)))
				}
			}
			start = time.Now()
			res, err := st.Place(online.TaskID(op.task), mod)
			d := time.Since(start)
			t.total += d
			if err != nil {
				e.fail("direct place %d: %v", op.task, err)
				return
			}
			if res.Placed && !res.Replanned {
				t.greedy = append(t.greedy, us(d))
			} else {
				t.fallback = append(t.fallback, us(d))
				t.replans++
				if res.Placed {
					t.replanAdmits++
				}
			}
			moves := stateMoves(res.Moves)
			if res.Placed {
				for _, mv := range moves {
					if err := sh.move(mv); err != nil {
						e.fail("direct place %d: %v", op.task, err)
						return
					}
				}
				start = time.Now()
				_, aerr := online.ValidatePlacement(region, sh.occ, mod, res.Placement)
				t.audit = append(t.audit, us(time.Since(start)))
				if aerr != nil {
					e.fail("direct place %d: audit: %v", op.task, aerr)
					return
				}
				if err := sh.admit(op.task, mod, res.Placement.Shape, res.Placement.At); err != nil {
					e.fail("direct place %d: %v", op.task, err)
					return
				}
			}
			got = placeFingerprint(res.Placed, res.Placement.Shape, res.Placement.At, res.Replanned, moves)
		case opDepart:
			start := time.Now()
			ok := st.Release(online.TaskID(op.task))
			d := time.Since(start)
			t.total += d
			t.release = append(t.release, us(d))
			sh.release(op.task)
			got = fmt.Sprintf("release %v", ok)
		case opDefrag:
			start := time.Now()
			res, err := st.Defrag()
			d := time.Since(start)
			t.total += d
			t.defrag = append(t.defrag, us(d))
			if err != nil && refusedDefrag(http.StatusInternalServerError, err.Error()) {
				t.defragRefused++
				got = refusedFingerprint
				break
			}
			if err != nil {
				e.fail("direct defrag: %v", err)
				return
			}
			moves := stateMoves(res.Moves)
			t.defragMoves += len(moves)
			for _, mv := range moves {
				if err := sh.move(mv); err != nil {
					e.fail("direct defrag: %v", err)
					return
				}
			}
			got = fmt.Sprintf("defrag %v", moves)
		default:
			start := time.Now()
			x := st.Stats()
			d := time.Since(start)
			t.total += d
			t.stats = append(t.stats, us(d))
			got = statsFingerprint(x.Residents, x.OccupiedTiles, x.Placed, x.Rejected, x.Replans, x.Defrags, x.Moves)
		}
		e.attempted++
		if got != op.answer {
			e.fail("direct replay answered %q, HTTP run %q", got, op.answer)
		}
	}
}

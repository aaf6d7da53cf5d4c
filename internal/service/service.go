// Package service is the placement daemon behind cmd/placed: an
// HTTP/JSON front end that serves core.Placer solves from a canonical
// instance cache. Requests are canonicalized (internal/canon) so that
// batches differing only in module or shape order share one cache
// entry. The cache is also the in-flight table: concurrent identical
// requests collapse into a single solve (singleflight). A solver gate
// of Workers slots bounds the solves running at once, and once
// MaxInFlight requests wait for a slot, more are shed with 429 instead
// of queueing unbounded multi-second solves.
//
// Every request is traced end to end, and the trace is the serving
// path's only clock: canonicalization, cache lookup, singleflight
// role, admission-queue wait, the solve and each session operation
// become spans of one request-scoped trace (internal/obs). Each ended
// span is observed once into the registry as service_<span>_seconds;
// the access log's durations and the SLO accounting read the finished
// trace. The solve span carries the solver's own counts from
// core.Result, the trace id travels back in the X-Trace-Id header, one
// JSON access-log line is emitted per request, and rolling SLO
// attainment is reported by /v1/stats. The registry — service
// counters, span histograms, solver phase timers and search counters —
// is served live in Prometheus text by GET /metrics.
//
// Endpoints:
//
//	POST   /v1/place                        solve or serve a cached placement (X-Cache: hit|miss)
//	POST   /v1/sessions                     open a stateful online session
//	POST   /v1/sessions/{id}/place          place one arrival (greedy, CP replan fallback)
//	DELETE /v1/sessions/{id}/modules/{task} release a resident module
//	POST   /v1/sessions/{id}/defrag         compact the session, moves priced by the frame model
//	GET    /v1/sessions/{id}/stats          residency, utilization, fragmentation
//	DELETE /v1/sessions/{id}                close a session
//	GET    /v1/healthz                      liveness
//	GET    /v1/stats                        cache/queue/solve/session counters plus SLO attainment
//	GET    /v1/fabrics                      catalog of placeable devices
//	GET    /metrics                         the metric registry in Prometheus text format
//	GET    /debug/traces                    recent and slowest request traces
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Config sizes the daemon. Zero fields take the stated defaults.
type Config struct {
	// Workers is the number of solves that may run at once (default 2).
	Workers int
	// CacheEntries is the LRU capacity in canonical instances
	// (default 1024).
	CacheEntries int
	// MaxInFlight bounds the admission queue: at most this many solves
	// may be waiting for a solver slot before requests are rejected
	// with 429 (default 64).
	MaxInFlight int
	// DefaultTimeout is the per-solve budget substituted when a request
	// sets none (default 10s). Requests cannot opt out: an unbounded
	// solve would pin a solver slot indefinitely.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-solve budget a request may ask for
	// (default 60s).
	MaxTimeout time.Duration
	// QueueGrace is the extra time a solve may spend waiting for a
	// solver slot before it gives up with 504 (default 30s). The budget
	// (QueueGrace plus the solve timeout) bounds only the wait: a solve
	// that started runs to completion.
	QueueGrace time.Duration
	// Registry receives the daemon's counters and histograms; nil
	// allocates a private registry (still served by /v1/stats and
	// GET /metrics).
	Registry *obs.Registry
	// Tracer mints the request-scoped traces; nil allocates a private
	// tracer (still served by /debug/traces). Every request is traced
	// either way.
	Tracer *obs.Tracer
	// AccessLog receives one JSON line per /v1/place request; nil
	// disables access logging.
	AccessLog io.Writer
	// SLOLatency is the request-latency objective for SLO accounting
	// over the 1m/5m/1h windows of /v1/stats (default 500ms).
	SLOLatency time.Duration
	// Degrade enables graceful degradation: a request whose exact
	// solve misses its deadline or is shed by admission is answered
	// with a fast approximate placement (tagged X-Placement-Quality:
	// approximate) instead of a 504/429, as long as the baseline
	// heuristics find a valid one. Off by default: degradation changes
	// the failure-path status codes, so it is an explicit opt-in
	// (cmd/placed enables it with -degrade).
	Degrade bool
	// Faults arms deterministic fault injection on the serving path
	// (see internal/faultinject); nil — the default — disables
	// injection at zero per-request cost.
	Faults *faultinject.Injector
	// MaxSessions caps live online sessions; creating one past the cap
	// evicts the least recently used (default 256).
	MaxSessions int
	// SessionTTL expires sessions idle for longer (default 15m).
	// Expiry is lazy — checked on access — so the daemon runs no
	// background reaper goroutine.
	SessionTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 1024
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.QueueGrace <= 0 {
		c.QueueGrace = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(obs.TracerConfig{})
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 500 * time.Millisecond
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server is the placement daemon. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	cfg       Config
	cache     *lruCache
	solveGate *gate
	leaders   sync.WaitGroup // detached leader goroutines, drained by Close
	start     time.Time
	accessLog *accessLogger
	slo       *sloTracker

	// solve computes one canonical instance; tests substitute stubs to
	// probe the concurrency machinery without real solver runs.
	solve func(*canon.Request) (*core.Result, error)
	// fallback computes the approximate placement served when the
	// exact solve degraded; tests substitute stubs.
	fallback func(*canon.Request) (*core.Result, error)
	// faults is the armed fault injector (nil = disabled); kept as a
	// field so every site check is one pointer load.
	faults *faultinject.Injector

	// sessions is the online-session table; sessionGate bounds the
	// session solves (replan, defrag) that run inline under a session
	// lock instead of on a detached leader (see session.go).
	sessions    *sessionStore
	sessionGate *gate

	requests    *obs.Counter
	cacheHits   *obs.Counter
	solves      *obs.Counter
	dedups      *obs.Counter
	rejected    *obs.Counter
	timeouts    *obs.Counter
	canceled    *obs.Counter
	errCount    *obs.Counter
	degraded    *obs.Counter
	sessCreated *obs.Counter
	sessEvicted *obs.Counter
	sessExpired *obs.Counter
	sessReplans *obs.Counter
	sessDefrags *obs.Counter
}

// New builds a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:         cfg,
		cache:       newLRU(cfg.CacheEntries),
		solveGate:   newGate(cfg.Workers, cfg.MaxInFlight),
		start:       time.Now(),
		accessLog:   newAccessLogger(cfg.AccessLog),
		slo:         newSLOTracker(cfg.SLOLatency),
		sessions:    newSessionStore(cfg.MaxSessions, cfg.SessionTTL, nil),
		sessionGate: newGate(cfg.Workers, 0),
		requests:    reg.Counter("service_requests_total"),
		cacheHits:   reg.Counter("service_cache_hits_total"),
		solves:      reg.Counter("service_solves_total"),
		dedups:      reg.Counter("service_dedup_total"),
		rejected:    reg.Counter("service_rejected_total"),
		timeouts:    reg.Counter("service_timeouts_total"),
		canceled:    reg.Counter("service_canceled_total"),
		errCount:    reg.Counter("service_solve_errors_total"),
		degraded:    reg.Counter("service_degraded_total"),
		sessCreated: reg.Counter("service_sessions_created_total"),
		sessEvicted: reg.Counter("service_sessions_evicted_total"),
		sessExpired: reg.Counter("service_sessions_expired_total"),
		sessReplans: reg.Counter("service_session_replans_total"),
		sessDefrags: reg.Counter("service_session_defrags_total"),
	}
	s.faults = cfg.Faults
	s.solve = s.solvePlacement
	s.fallback = s.solveApproximate
	return s
}

// Close waits for the detached leader solves to land. The server must
// not serve requests after Close.
func (s *Server) Close() { s.leaders.Wait() }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", s.observed(s.servePlace))
	mux.HandleFunc("POST /v1/sessions", s.observed(s.handleSessionCreate))
	mux.HandleFunc("POST /v1/sessions/{id}/place", s.observed(s.handleSessionPlace))
	mux.HandleFunc("POST /v1/sessions/{id}/defrag", s.observed(s.handleSessionDefrag))
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.observed(s.handleSessionStats))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.observed(s.handleSessionDelete))
	mux.HandleFunc("DELETE /v1/sessions/{id}/modules/{task}", s.observed(s.handleSessionRelease))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/fabrics", s.handleFabrics)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return mux
}

// errSolve wraps a solver failure so the handler can distinguish a bad
// instance (client error) from machinery errors.
type errSolve struct{ err error }

func (e errSolve) Error() string { return e.err.Error() }

// statusClientClosedRequest is the non-standard 499 code (nginx
// convention) logged when the client disconnected before a response
// could be served; no client observes it.
const statusClientClosedRequest = 499

// placeOutcome accumulates what the access log and SLO accounting need
// to know about one request besides its durations, which they read
// from the finished trace.
type placeOutcome struct {
	status  int
	cache   string
	digest  string
	errText string
	quality string
}

// traceFor mints the request-scoped trace, honouring a well-formed
// client-supplied X-Trace-Id so upstream callers can correlate.
func (s *Server) traceFor(r *http.Request) *obs.Trace {
	if id, ok := obs.ParseTraceID(r.Header.Get("X-Trace-Id")); ok {
		return s.cfg.Tracer.NewWithID(id, "request")
	}
	return s.cfg.Tracer.New("request")
}

// observed wraps a traced endpoint body with the daemon's per-request
// bookkeeping: the request counter, the request-scoped trace
// (X-Trace-Id on every response, including errors), SLO accounting,
// and one access-log line. /v1/place and every session endpoint share
// this skeleton, so all of them show up in the same operational
// surfaces.
func (s *Server) observed(h func(http.ResponseWriter, *http.Request, *obs.Trace, *placeOutcome)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		tr := s.traceFor(r)
		// Set on the header map before any WriteHeader call, so error
		// responses (400/429/499/504/...) carry the id too.
		w.Header().Set("X-Trace-Id", tr.ID().String())
		out := &placeOutcome{status: http.StatusOK, cache: "none"}
		defer func() {
			s.slo.Observe(s.end(tr.Root()), out.status)
			ts := tr.Finish()
			s.accessLog.log(AccessRecord{
				Time:    ts.Start.UTC().Format(time.RFC3339Nano),
				TraceID: ts.TraceID,
				Method:  r.Method,
				Path:    r.URL.Path,
				Status:  out.status,
				DurMs:   ts.DurMs,
				Digest:  out.digest,
				Cache:   out.cache,
				QueueMs: spanMs(ts, "queue_wait"),
				SolveMs: spanMs(ts, "solve", "session_place", "session_defrag"),
				Quality: out.quality,
				Error:   out.errText,
			})
		}()
		h(w, r, tr, out)
	}
}

// end closes sp with attrs attached and observes its duration into the
// registry as service_<span>_seconds. It is the one place a span
// becomes a histogram observation, so each span of the serving path
// ends here exactly once; the root span ends here before Finish.
func (s *Server) end(sp *obs.Span, attrs ...obs.Attr) time.Duration {
	if len(attrs) > 0 {
		sp.SetAttrs(attrs...)
	}
	d := sp.End()
	s.cfg.Registry.Histogram("service_" + sp.Name() + "_seconds").Observe(d.Seconds())
	return d
}

// spanMs is the duration of ts's span named one of names (a trace holds
// at most one of them); 0 when there is none or it had not ended when
// the trace finished.
func spanMs(ts obs.TraceSummary, names ...string) float64 {
	for _, sp := range ts.Spans {
		if slices.Contains(names, sp.Name) {
			return sp.DurMs
		}
	}
	return 0
}

// keyed is an expanded request with its canonical digest, the order
// that leads from the canonical form back to the request and, for a
// generate request, the digest of its spec.
type keyed struct {
	creq   *canon.Request
	digest canon.Digest
	order  canon.Order
	spec   *canon.Digest
}

// servePlace is the traced request body of handlePlace; it fills out
// for the deferred access-log/SLO bookkeeping.
func (s *Server) servePlace(w http.ResponseWriter, r *http.Request, tr *obs.Trace, out *placeOutcome) {
	canonSp := tr.StartSpan("canonicalize")
	d, err := decode(r.Body, r.ContentLength, s.cfg)
	if err != nil {
		s.end(canonSp)
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}

	// Fault site "cache", drawn once per decoded request before its
	// first lookup: an injected fault models an unavailable cache
	// backend — after any injected latency, nothing stored counts as a
	// hit. The request is answered as a miss but still goes through the
	// table: it reuses a stored outcome instead of solving it again,
	// and otherwise joins or leads the flight.
	cacheFault := s.faults.Check(faultinject.SiteCache)
	if cacheFault.Delay > 0 {
		time.Sleep(cacheFault.Delay)
	}
	cacheDown := cacheFault.Err != nil || cacheFault.Timeout

	// A generate spec fixes its batch, module and shape order included,
	// so a spec answered before is served its body unexpanded.
	k := &keyed{spec: d.specKey()}
	if k.spec != nil && !cacheDown {
		if body, digest := s.cache.Spec(*k.spec); body != nil {
			s.end(canonSp, obs.Bool("expanded", false))
			s.end(tr.StartSpan("cache_lookup"), obs.Bool("hit", true))
			out.digest = digest.String()
			s.serve(w, out, body, digest, "hit")
			return
		}
	}
	k.creq, err = d.expand()
	if err == nil {
		k.digest, k.order, err = k.creq.Key()
	}
	s.end(canonSp, obs.Bool("expanded", true))
	if err != nil {
		s.failPlace(w, out, http.StatusBadRequest, err)
		return
	}
	out.digest = k.digest.String()

	lookupSp := tr.StartSpan("cache_lookup")
	res, f, leader := s.cache.Join(k.digest)
	hit := res != nil && !cacheDown
	s.end(lookupSp, obs.Bool("hit", hit))
	if hit {
		s.answer(w, out, k, res, "hit")
		return
	}

	// Fault site "singleflight": an injected fault models a broken
	// dedup layer — a request that would wait on another request's
	// flight solves solo on a private one instead.
	flightFault := s.faults.Check(faultinject.SiteSingleflight)
	if flightFault.Delay > 0 {
		time.Sleep(flightFault.Delay)
	}
	flightSp := tr.StartSpan("singleflight")
	if res != nil {
		leader = true // a forced miss served from the table solves nothing
	} else {
		if !leader && (flightFault.Err != nil || flightFault.Timeout) {
			f, leader = newFlight(), true
		}
		if leader {
			s.leaders.Add(1)
			go s.lead(tr, k, f)
		}
		// A waiter that gives up leaves the solve running for the
		// others and the cache.
		select {
		case <-f.done:
			res, err = f.res, f.err
		case <-r.Context().Done():
			err = r.Context().Err()
		}
	}
	role := "waiter"
	if leader {
		role = "leader"
	}
	s.end(flightSp, obs.String("role", role))
	switch {
	case errors.Is(err, errBusy):
		s.rejected.Inc()
		if s.cfg.Degrade && s.serveDegraded(w, tr, out, k) {
			return
		}
		// Shed before any solve state existed: safe for the client to
		// retry shortly (internal/client honours this header).
		w.Header().Set("Retry-After", "1")
		s.failPlace(w, out, http.StatusTooManyRequests, errors.New("admission queue full, retry later"))
		return
	case errors.Is(err, context.Canceled) && errors.Is(r.Context().Err(), context.Canceled):
		// The client disconnected while this request waited on its
		// flight: stop immediately (the leader's solve stays detached
		// and still fills the cache) and log a 499 instead of burning
		// the timeout. Never degrade: no one is listening.
		s.canceled.Inc()
		s.failPlace(w, out, statusClientClosedRequest, errors.New("client closed request"))
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.timeouts.Inc()
		if s.cfg.Degrade && s.serveDegraded(w, tr, out, k) {
			return
		}
		s.failPlace(w, out, http.StatusGatewayTimeout, errors.New("request timed out waiting for a solver"))
		return
	case err != nil:
		var se errSolve
		status := http.StatusInternalServerError
		if errors.As(err, &se) {
			// The solver rejects malformed instances (a module with no
			// feasible position at all, inconsistent options): the
			// request, not the daemon, is at fault.
			status = http.StatusUnprocessableEntity
		}
		s.errCount.Inc()
		s.failPlace(w, out, status, err)
		return
	}
	cache := "miss"
	if !leader {
		s.dedups.Inc()
		cache = "dedup"
	}
	s.answer(w, out, k, res, cache)
}

// answer serves res to k's requester, encoded in its own module and
// shape order, as a hit, a miss or a deduplicated wait (cache). A
// generate request's body is recorded under its spec, so its repeats
// skip expansion.
func (s *Server) answer(w http.ResponseWriter, out *placeOutcome, k *keyed, res *placed, cache string) {
	body, err := res.encode(k)
	if err != nil {
		s.errCount.Inc()
		s.failPlace(w, out, http.StatusInternalServerError, err)
		return
	}
	if k.spec != nil {
		s.cache.AddSpec(*k.spec, k.digest, res, body)
	}
	s.serve(w, out, body, k.digest, cache)
}

// serve writes an exact placement body as a hit, a miss or a
// deduplicated wait (cache); a hit and a deduplicated wait both carry
// X-Cache: hit, since neither ran a solve.
func (s *Server) serve(w http.ResponseWriter, out *placeOutcome, body []byte, digest canon.Digest, cache string) {
	if cache == "hit" {
		s.cacheHits.Inc()
	}
	out.cache = cache
	writePlacement(w, body, digest, cache != "miss", QualityExact)
}

// failPlace records the failure in the outcome and writes the error
// body. The X-Trace-Id header was set before any write, so error
// responses stay correlatable with the access log.
func (s *Server) failPlace(w http.ResponseWriter, out *placeOutcome, status int, err error) {
	out.status = status
	out.errText = err.Error()
	writeError(w, status, err)
}

// lead solves f's instance and lands the outcome in the cache. It
// runs on its own goroutine, detached from every request on purpose:
// waiters share its result, so one waiter giving up must not abort the
// work the others are waiting on, and the stored outcome serves later
// requests. The queue-wait and solve spans it records belong to the
// leader request's trace (tr); if that request has already finished,
// the spans still reach the span sink, marked unended in the trace's
// filed ring summary.
func (s *Server) lead(tr *obs.Trace, k *keyed, f *flight) {
	defer s.leaders.Done()
	var skipStore bool
	res, err := s.solveExact(tr, k, &skipStore)
	s.cache.Land(k.digest, f, res, err, err == nil && !skipStore)
}

// solveExact waits for a solver slot, solves k's request on the
// calling goroutine in its own module and shape order, and returns the
// outcome in canonical terms. The wait is bounded
// by the queue grace plus the solve timeout; a solve that started runs
// to completion and is never thrown away.
func (s *Server) solveExact(tr *obs.Trace, k *keyed, skipStore *bool) (*placed, error) {
	// Fault site "queue": an injected error models a full admission
	// queue (shed → 429 or degradation), an injected timeout a request
	// that expired while queued (→ 504 or degradation).
	queueFault := s.faults.Check(faultinject.SiteQueue)
	if queueFault.Delay > 0 {
		time.Sleep(queueFault.Delay)
	}
	if queueFault.Err != nil {
		return nil, errBusy
	}
	if queueFault.Timeout {
		return nil, context.DeadlineExceeded
	}
	//solverlint:allow ctxflow deliberate detachment: shared singleflight solve outlives any single caller
	detached := context.Background()
	waitCtx, cancel := context.WithTimeout(detached, s.cfg.QueueGrace+k.creq.Options.Timeout)
	queueSp := tr.StartSpan("queue_wait")
	err := s.solveGate.Acquire(waitCtx)
	cancel()
	// A request shed (errBusy) or expired while waiting never solves;
	// its queue-wait span still ends, and is observed, so the trace does
	// not dangle.
	s.end(queueSp)
	if err != nil {
		return nil, err
	}
	defer s.solveGate.Release()
	solveSp := tr.StartSpan("solve")
	s.solves.Inc()
	res, err := s.injectedSolve(k.creq, skipStore)
	if err != nil {
		s.end(solveSp, obs.String("error", err.Error()))
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, faultinject.ErrInjected) {
			// A missed solve deadline keeps its identity so the HTTP
			// layer can degrade instead of erroring; an injected
			// solver error is machinery failure (500), not a malformed
			// instance (422).
			return nil, err
		}
		return nil, errSolve{err}
	}
	s.end(solveSp,
		obs.Bool("found", res.Found),
		obs.Int("height", int64(res.Height)),
		obs.String("reason", res.Reason.String()),
		obs.Int("nodes", res.Nodes),
		obs.Int("backtracks", res.Backtracks),
		obs.Int("propagations", res.Propagations),
		obs.Int("incumbents", int64(len(res.ObjectiveTrace))),
	)
	return newPlaced(k, res, QualityExact), nil
}

// injectedSolve interposes the "solver" fault site in front of the
// real (or stubbed) solve. An injected timeout surfaces as the
// deadline miss the HTTP layer degrades on; an injected error as a
// machinery failure; an injected partial as a stalled, placement-free
// result that must not poison the cache (hence *skipStore).
func (s *Server) injectedSolve(creq *canon.Request, skipStore *bool) (*core.Result, error) {
	fault := s.faults.Check(faultinject.SiteSolver)
	if fault.Delay > 0 {
		time.Sleep(fault.Delay)
	}
	switch {
	case fault.Timeout:
		return nil, context.DeadlineExceeded
	case fault.Err != nil:
		return nil, fault.Err
	case fault.Partial:
		*skipStore = true
		return &core.Result{Stalled: true, Reason: csp.StopStalled}, nil
	}
	return s.solve(creq)
}

// solvePlacement is the production solver: materialise the fabric,
// window the region, place the canonical module set. The placer adds
// its phase timings and search counters to the daemon's registry.
func (s *Server) solvePlacement(creq *canon.Request) (*core.Result, error) {
	region, err := regionFor(creq)
	if err != nil {
		return nil, err
	}
	opts := creq.Options.Options()
	opts.Metrics = s.cfg.Registry
	return core.New(region, opts).Place(creq.Modules)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFabrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"fabrics": fabric.Catalog()})
}

// handleMetrics writes the registry in the Prometheus text exposition
// format, so a scraper reads the daemon's counters while it runs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error means the scraper went away; there is no one left
	// to report it to.
	_ = s.cfg.Registry.WritePrometheus(w)
}

// handleTraces dumps the tracer's recent and slowest rings.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Tracer.Snapshot())
}

// StatsResponse is the wire form of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Requests      int64   `json:"requests"`
	CacheHits     int64   `json:"cacheHits"`
	DedupHits     int64   `json:"dedupHits"`
	Solves        int64   `json:"solves"`
	SolveErrors   int64   `json:"solveErrors"`
	Rejected      int64   `json:"rejected"`
	Timeouts      int64   `json:"timeouts"`
	Canceled      int64   `json:"canceled"`
	// Degraded counts requests answered with an approximate placement
	// after the exact solve missed its deadline or was shed.
	Degraded    int64      `json:"degraded"`
	HitRatio    float64    `json:"hitRatio"`
	QueueDepth  int        `json:"queueDepth"`
	InFlight    int        `json:"inFlight"`
	Workers     int        `json:"workers"`
	MaxInFlight int        `json:"maxInFlight"`
	Cache       CacheStats `json:"cache"`
	SLO         SLOStats   `json:"slo"`
	// Sessions counts live online sessions; the *_total companions
	// count lifecycle events since start.
	Sessions        int   `json:"sessions"`
	SessionsCreated int64 `json:"sessionsCreated"`
	SessionsEvicted int64 `json:"sessionsEvicted"`
	SessionsExpired int64 `json:"sessionsExpired"`
	SessionReplans  int64 `json:"sessionReplans"`
	SessionDefrags  int64 `json:"sessionDefrags"`
	// Faults snapshots fault-injection fires ("site:mode" -> count);
	// omitted when injection is disabled.
	Faults map[string]int64 `json:"faults,omitempty"`
}

// Stats snapshots the daemon counters. HitRatio counts both cache hits
// and singleflight-deduplicated requests as hits: neither ran a solve.
func (s *Server) Stats() StatsResponse {
	st := StatsResponse{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Value(),
		CacheHits:       s.cacheHits.Value(),
		DedupHits:       s.dedups.Value(),
		Solves:          s.solves.Value(),
		SolveErrors:     s.errCount.Value(),
		Rejected:        s.rejected.Value(),
		Timeouts:        s.timeouts.Value(),
		Canceled:        s.canceled.Value(),
		Degraded:        s.degraded.Value(),
		QueueDepth:      s.solveGate.QueueDepth(),
		InFlight:        s.solveGate.InFlight(),
		Workers:         s.cfg.Workers,
		MaxInFlight:     s.cfg.MaxInFlight,
		Cache:           s.cache.Stats(),
		SLO:             s.slo.Stats(),
		Sessions:        s.sessions.len(),
		SessionsCreated: s.sessCreated.Value(),
		SessionsEvicted: s.sessEvicted.Value(),
		SessionsExpired: s.sessExpired.Value(),
		SessionReplans:  s.sessReplans.Value(),
		SessionDefrags:  s.sessDefrags.Value(),
	}
	if s.faults != nil {
		st.Faults = s.faults.Stats()
	}
	if st.Requests > 0 {
		st.HitRatio = float64(st.CacheHits+st.DedupHits) / float64(st.Requests)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writePlacement serves a placement body. The body bytes are identical
// for every request of the same canonical instance that lists its
// modules and shapes in the same order; the per-request hit/miss and
// exact/approximate distinctions travel in the X-Cache and
// X-Placement-Quality headers so they cannot perturb the payload.
func writePlacement(w http.ResponseWriter, body []byte, digest canon.Digest, hit bool, quality string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Placement-Digest", digest.String())
	w.Header().Set("X-Placement-Quality", quality)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

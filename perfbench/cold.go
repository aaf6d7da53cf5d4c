package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// tableIFabric is the paper's evaluation device (see
// experiments.TableIDevice).
const tableIFabric = "virtex4-like-72x60"

// coldSetups is how many times a run sets table1-cold up.
const coldSetups = 5

// pinnedHeights are the heights the service returns for the table1-cold
// corpus at stallNodes 800 with presolve on. The solver is
// deterministic, so any change here is a behaviour change.
var pinnedHeights = map[string]int{
	"1/alternatives": 32, "1/single": 41,
	"2/alternatives": 41, "2/single": 54,
	"3/alternatives": 29, "3/single": 38,
	"4/alternatives": 40, "4/single": 49,
	"5/alternatives": 37, "5/single": 47,
	"6/alternatives": 42, "6/single": 52,
	"7/alternatives": 32, "7/single": 42,
	"8/alternatives": 35, "8/single": 45,
	"9/alternatives": 39, "9/single": 49,
	"10/alternatives": 38, "10/single": 47,
}

// coldRequest is one corpus instance.
type coldRequest struct {
	label  string // "<generator seed>/<arm>"
	body   []byte
	creq   *canon.Request // decoded form, for checking answers
	height int            // pinned height; 0 when unpinned
}

// coldCorpus builds the table1-cold corpus: the paper's Table-I
// protocol instances as explicit module lists, with and without design
// alternatives, in an order drawn from the workload seed.
func coldCorpus(cfg config) ([]coldRequest, error) {
	var out []coldRequest
	for _, gs := range cfg.size.coldSeeds {
		mods, err := workload.Generate(workload.Config{NumModules: cfg.size.coldModules}, rand.New(rand.NewSource(gs)))
		if err != nil {
			return nil, err
		}
		for _, arm := range []string{"alternatives", "single"} {
			m := mods
			if arm == "single" {
				m = workload.FirstShapesOnly(mods)
			}
			body, err := explicitBody(tableIFabric, m, cfg.size.coldStall)
			if err != nil {
				return nil, err
			}
			creq, err := decodedRequest(body)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%d/%s", gs, arm)
			out = append(out, coldRequest{label: label, body: body, creq: creq, height: cfg.size.coldHeights[label]})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// explicitBody renders a module batch as a /v1/place request.
func explicitBody(fab string, mods []*module.Module, stall int64) ([]byte, error) {
	req := service.PlaceRequest{
		Fabric:  fab,
		Options: service.OptionsSpec{StallNodes: stall, TimeoutMs: solveTimeout.Milliseconds()},
	}
	for _, m := range mods {
		req.Modules = append(req.Modules, service.ModuleSpecFor(m))
	}
	return json.Marshal(req)
}

// coldPass is one pass over the corpus on a fresh server.
type coldPass struct {
	lat     []time.Duration
	heights map[string]int
	stats   service.StatsResponse
	reg     *obs.Registry
	handler float64 // seconds inside the service's handlers
}

// runColdPass sends every corpus instance once, in order, from one
// client, and checks each answer. Answers pass through tamper when set.
func runColdPass(srv *server, corpus []coldRequest, region *fabric.Region, e *endToEnd, tamper func([]byte) []byte) *coldPass {
	c := newClient(srv.base)
	defer c.close()
	p := &coldPass{heights: map[string]int{}}
	for _, r := range corpus {
		e.attempted++
		rep, err := c.do(http.MethodPost, "/v1/place", r.body)
		if err != nil {
			e.fail("%s: %v", r.label, err)
			continue
		}
		p.lat = append(p.lat, rep.latency)
		e.calls++
		e.busy += rep.latency
		if rep.status != http.StatusOK {
			e.fail("%s: status %d: %s", r.label, rep.status, rep.body)
			continue
		}
		if got := rep.header.Get("X-Cache"); got != "miss" {
			e.fail("%s: X-Cache %q on a cold request", r.label, got)
		}
		body := rep.body
		if tamper != nil {
			body = tamper(body)
		}
		ans, err := checkPlace(region, r.creq, body)
		if err != nil {
			e.fail("%s: %v", r.label, err)
			continue
		}
		h := ans.resp.Height
		p.heights[r.label] = h
		if r.height != 0 && h != r.height {
			e.fail("%s: height %d, pinned %d", r.label, h, r.height)
		}
		e.util = append(e.util, ans.resp.Utilization)
		e.admitted += len(ans.resp.Placements)
		e.arrivals += len(r.creq.Modules)
		e.frames += ans.frames
	}
	p.stats = srv.svc.Stats()
	p.reg = srv.reg
	p.handler = srv.handlerSeconds()
	return p
}

func runCold(cfg config) (*outcome, error) {
	dev, err := fabric.ByName(tableIFabric)
	if err != nil {
		return nil, err
	}
	region := dev.FullRegion()
	out := &outcome{}
	e := &out.e2e

	// Set-up: build the corpus and start the server, several times.
	var corpus []coldRequest
	var srv *server
	for i := 0; i < coldSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if corpus, err = coldCorpus(cfg); err != nil {
			return nil, err
		}
		if srv, err = startServer(nil); err != nil {
			return nil, err
		}
		e.setup = append(e.setup, time.Since(start).Seconds())
	}

	// Measured phase: whole passes over the corpus, each on a fresh
	// server so every request misses the cache, while the next pass
	// still fits in the run.
	var first *coldPass
	var stats service.StatsResponse
	alloc0 := totalAlloc()
	start := time.Now()
	for {
		passStart := time.Now()
		p := runColdPass(srv, corpus, region, e, cfg.tamper)
		if err := srv.stop(); err != nil {
			return nil, err
		}
		e.lat = append(e.lat, p.lat...)
		addStats(&stats, p.stats)
		if first == nil {
			first = p
		}
		if time.Since(start)+time.Since(passStart) > cfg.seconds {
			break
		}
		if srv, err = startServer(nil); err != nil {
			return nil, err
		}
	}
	e.elapsed = time.Since(start)
	e.alloc = totalAlloc() - alloc0

	if cfg.trace {
		if out.layers, err = traceCold(corpus, region, first, stats, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addStats sums the service counters the traced run reports.
func addStats(dst *service.StatsResponse, s service.StatsResponse) {
	dst.Requests += s.Requests
	dst.CacheHits += s.CacheHits
	dst.DedupHits += s.DedupHits
	dst.Solves += s.Solves
	dst.Rejected += s.Rejected
}

// serviceLayers are the per-layer metrics read from the service's own
// counters over the untraced run.
func serviceLayers(l map[string]float64, s service.StatsResponse) {
	if s.Requests > 0 {
		l["service.hit_ratio"] = float64(s.CacheHits+s.DedupHits) / float64(s.Requests)
	}
	l["service.solves"] = float64(s.Solves)
	l["service.rejected"] = float64(s.Rejected)
}

// traceCold is the traced run of table1-cold: the corpus is served
// again with request tracing on, and every instance goes through the
// decode, digest, anchor and solver layers directly.
func traceCold(corpus []coldRequest, region *fabric.Region, untraced *coldPass, stats service.StatsResponse, e *endToEnd) (map[string]float64, error) {
	srv, err := startServer(obs.NewTracer(obs.TracerConfig{}))
	if err != nil {
		return nil, err
	}
	traced := runColdPass(srv, corpus, region, e, nil)
	if err := srv.stop(); err != nil {
		return nil, err
	}

	n := float64(len(corpus))
	reg := obs.NewRegistry()
	var dec decodeTimes
	var anchorsT time.Duration
	var anchors, warm int
	var nodes, backtracks, props int64
	for _, r := range corpus {
		t, err := measureDecode(r.body)
		if err != nil {
			return nil, err
		}
		dec.add(t)
		d, a := validAnchors(region, r.creq.Modules)
		anchorsT += d
		anchors += a

		opts := r.creq.Options.Options()
		opts.Metrics = reg
		opts.Recorder = obs.NewStats(reg)
		res, err := core.New(region, opts).Place(r.creq.Modules)
		if err != nil {
			return nil, fmt.Errorf("%s: direct solve: %w", r.label, err)
		}
		if res.Height != untraced.heights[r.label] || res.Height != traced.heights[r.label] {
			e.fail("%s: direct solve height %d, served %d untraced and %d traced",
				r.label, res.Height, untraced.heights[r.label], traced.heights[r.label])
		}
		nodes += res.Nodes
		backtracks += res.Backtracks
		props += res.Propagations
		if res.PresolveStats != nil {
			warm += res.PresolveStats.WarmHeight
		}
	}

	ph := readPhases(traced.reg)
	e2e := totalMs(traced.lat)
	l := map[string]float64{
		"service.decode_ms":             ms(dec.self()) / n,
		"service.queue_wait_ms":         ph.queueWait / n,
		"service.residual_ms":           (e2e - 1e3*traced.handler) / n,
		"workload.generate_ms":          ms(dec.generate) / n,
		"module.build_ms":               ms(dec.build) / n,
		"canon.digest_ms":               ms(dec.digest) / n,
		"core.valid_anchors_ms":         ms(anchorsT) / n,
		"core.anchors":                  float64(anchors) / n,
		"core.model_build_ms":           (ph.modelBuild - ms(anchorsT)) / n,
		"presolve.ms":                   ph.presolve / n,
		"presolve.alternatives_dropped": float64(reg.Counter("presolve_alternatives_dropped").Value()) / n,
		"presolve.warm_height":          float64(warm) / n,
		"geost.propagation_ms":          ph.propagation / n,
		"csp.search_self_ms":            (ph.search - ph.propagation) / n,
		"csp.proof_ms":                  ph.proof / n,
		"csp.nodes":                     float64(nodes) / n,
		"csp.backtracks":                float64(backtracks) / n,
		"csp.propagations":              float64(props) / n,
		"obs.tracing_overhead_pct":      overheadPct(e2e, totalMs(untraced.lat)),
	}
	if nodes > 0 {
		l["csp.propagations_per_node"] = float64(props) / float64(nodes)
	}
	for _, p := range propagators {
		l["geost.runs."+p] = float64(propagatorRuns(reg, p)) / n
	}
	serviceLayers(l, stats)
	l["unaccounted_pct"] = unaccountedPct(e2e/n,
		l["service.residual_ms"], l["service.decode_ms"], l["workload.generate_ms"], l["module.build_ms"],
		l["canon.digest_ms"], l["service.queue_wait_ms"], l["core.valid_anchors_ms"], l["core.model_build_ms"],
		l["presolve.ms"], l["geost.propagation_ms"], l["csp.search_self_ms"])
	return l, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/canon"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

const (
	// hitSetups is how many times a run sets place-hit up.
	hitSetups = 3
	// hitDirect is how many requests the traced run sends through the
	// layers directly.
	hitDirect = 500
)

// hitEntry is one request of the place-hit pool.
type hitEntry struct {
	body []byte
	creq *canon.Request
	ref  *placeAnswer // the checked answer of the warm-up miss
	raw  []byte       // its body, which every hit must repeat byte for byte
}

// hitPool draws the pool from the workload seed: Table-I-sized batches,
// alternately in generate form and as explicit module lists.
func hitPool(cfg config) ([]hitEntry, error) {
	pool := make([]hitEntry, cfg.size.hitPool)
	for i := range pool {
		gs := cfg.seed*1000 + int64(i)
		var body []byte
		var err error
		if i%2 == 0 {
			body, err = json.Marshal(service.PlaceRequest{
				Fabric:   tableIFabric,
				Generate: &service.GenerateSpec{Seed: gs, NumModules: cfg.size.hitModules},
				Options:  service.OptionsSpec{StallNodes: cfg.size.hitStall, TimeoutMs: solveTimeout.Milliseconds()},
			})
		} else {
			mods, gerr := workload.Generate(workload.Config{NumModules: cfg.size.hitModules}, rand.New(rand.NewSource(gs)))
			if gerr != nil {
				return nil, gerr
			}
			body, err = explicitBody(tableIFabric, mods, cfg.size.hitStall)
		}
		if err != nil {
			return nil, err
		}
		creq, err := decodedRequest(body)
		if err != nil {
			return nil, err
		}
		pool[i] = hitEntry{body: body, creq: creq}
	}
	return pool, nil
}

// warmPool sends every pool request once; each must miss, and its
// checked answer becomes the reference for the hits.
func warmPool(srv *server, pool []hitEntry, region *fabric.Region, e *endToEnd) {
	c := newClient(srv.base)
	defer c.close()
	for i := range pool {
		e.attempted++
		rep, err := c.do(http.MethodPost, "/v1/place", pool[i].body)
		if err != nil {
			e.fail("warm-up %d: %v", i, err)
			continue
		}
		if rep.status != http.StatusOK || rep.header.Get("X-Cache") != "miss" {
			e.fail("warm-up %d: status %d, X-Cache %q", i, rep.status, rep.header.Get("X-Cache"))
			continue
		}
		ans, err := checkPlace(region, pool[i].creq, rep.body)
		if err != nil {
			e.fail("warm-up %d: %v", i, err)
			continue
		}
		pool[i].ref, pool[i].raw = ans, rep.body
	}
}

// mergeInto adds one client's accumulator to another.
func mergeInto(e *endToEnd, p endToEnd) {
	e.lat = append(e.lat, p.lat...)
	e.blocked = append(e.blocked, p.blocked...)
	e.calls += p.calls
	e.busy += p.busy
	e.util = append(e.util, p.util...)
	e.admitted += p.admitted
	e.arrivals += p.arrivals
	e.frames += p.frames
	e.refused += p.refused
	e.attempted += p.attempted
	e.failed += p.failed
	e.errs = append(e.errs, p.errs...)
}

// hitOnce sends pool request i and checks that it is a hit repeating
// the warm-up answer byte for byte.
func hitOnce(c *client, pool []hitEntry, i int, e *endToEnd, tamper func([]byte) []byte) {
	e.attempted++
	rep, err := c.do(http.MethodPost, "/v1/place", pool[i].body)
	if err != nil {
		e.fail("hit %d: %v", i, err)
		return
	}
	e.lat = append(e.lat, rep.latency)
	e.calls++
	e.busy += rep.latency
	body := rep.body
	if tamper != nil {
		body = tamper(body)
	}
	switch {
	case rep.status != http.StatusOK:
		e.fail("hit %d: status %d: %s", i, rep.status, rep.body)
	case rep.header.Get("X-Cache") != "hit":
		e.fail("hit %d: X-Cache %q", i, rep.header.Get("X-Cache"))
	case pool[i].ref == nil || !bytes.Equal(body, pool[i].raw):
		e.fail("hit %d: body differs from the warm-up answer", i)
	default:
		ref := pool[i].ref
		e.util = append(e.util, ref.resp.Utilization)
		e.admitted += len(ref.resp.Placements)
		e.arrivals += len(pool[i].creq.Modules)
		e.frames += ref.frames
	}
}

func runHit(cfg config) (*outcome, error) {
	dev, err := fabric.ByName(tableIFabric)
	if err != nil {
		return nil, err
	}
	region := dev.FullRegion()
	out := &outcome{}
	e := &out.e2e

	// Set-up: draw the pool, start the server and warm its cache,
	// several times.
	var pool []hitEntry
	var srv *server
	for i := 0; i < hitSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if pool, err = hitPool(cfg); err != nil {
			return nil, err
		}
		if srv, err = startServer(nil); err != nil {
			return nil, err
		}
		warmPool(srv, pool, region, e)
		e.setup = append(e.setup, time.Since(start).Seconds())
	}

	// Measured phase: one client replays the pool in a seeded order
	// until the time is up. A second concurrent client would make the
	// two contend for the host's two CPUs with each other and the
	// collector, and their latencies spread far wider between runs.
	var seq []int
	var phase endToEnd
	c := newClient(srv.base)
	rng := rand.New(rand.NewSource(cfg.seed * 31))
	alloc0 := totalAlloc()
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		i := rng.Intn(len(pool))
		seq = append(seq, i)
		hitOnce(c, pool, i, &phase, cfg.tamper)
	}
	e.elapsed = time.Since(start)
	e.alloc = totalAlloc() - alloc0
	c.close()
	stats := srv.svc.Stats()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	mergeInto(e, phase)
	// The warm-up misses are set-up; the service counters cover the hits.
	stats.Requests -= int64(len(pool))
	stats.Solves -= int64(len(pool))

	if cfg.trace {
		if out.layers, err = traceHit(pool, seq, region, ms(phase.busy), stats, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceHit is the traced run of place-hit: the same request sequence
// goes to a warmed server with tracing on, and every pool body goes
// through the decode layers and Digest directly.
func traceHit(pool []hitEntry, seq []int, region *fabric.Region, untracedMs float64, stats service.StatsResponse, e *endToEnd) (map[string]float64, error) {
	srv, err := startServer(obs.NewTracer(obs.TracerConfig{}))
	if err != nil {
		return nil, err
	}
	warmPool(srv, pool, region, e)
	handler0 := srv.handlerSeconds()
	var traced endToEnd
	c := newClient(srv.base)
	for _, i := range seq {
		hitOnce(c, pool, i, &traced, nil)
	}
	c.close()
	handler := srv.handlerSeconds() - handler0
	if err := srv.stop(); err != nil {
		return nil, err
	}
	mergeInto(e, traced)

	// The first hitDirect requests go through the layers directly, in the
	// order they were served, so each call meets the cache and collector
	// state a served request met; their mean stands for every request.
	var total decodeTimes
	direct := seq[:min(len(seq), hitDirect)]
	for _, i := range direct {
		t, err := measureDecode(pool[i].body)
		if err != nil {
			return nil, err
		}
		total.add(t)
	}
	n := float64(max(len(traced.lat), 1))
	nd := float64(max(len(direct), 1))
	e2e := ms(traced.busy)
	l := map[string]float64{
		"service.decode_ms":        ms(total.self()) / nd,
		"service.residual_ms":      (e2e - 1e3*handler) / n,
		"workload.generate_ms":     ms(total.generate) / nd,
		"module.build_ms":          ms(total.build) / nd,
		"canon.digest_ms":          ms(total.digest) / nd,
		"obs.tracing_overhead_pct": overheadPct(e2e, untracedMs),
	}
	serviceLayers(l, stats)
	l["unaccounted_pct"] = unaccountedPct(e2e/n,
		l["service.residual_ms"], l["service.decode_ms"], l["workload.generate_ms"],
		l["module.build_ms"], l["canon.digest_ms"])
	return l, nil
}

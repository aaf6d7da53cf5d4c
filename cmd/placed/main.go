// Command placed is the placement daemon: a long-lived HTTP/JSON
// server wrapping the constraint placer behind a canonical instance
// cache (see internal/service). Repeated requests for the same module
// mix — the common case when a runtime-reconfigurable system keeps
// re-deriving schedules over one module library — are answered from
// the cache in sub-millisecond time instead of re-running a
// multi-second solve.
//
// Example:
//
//	placed -addr localhost:8080 -workers 4 -cache-entries 4096
//	curl -s -X POST localhost:8080/v1/place -d '{
//	  "fabric": "virtex4-like-72x60",
//	  "generate": {"seed": 1, "numModules": 6, "alternatives": 4},
//	  "options": {"stallNodes": 400}
//	}'
//
// The first request solves (X-Cache: miss); an identical request —
// even with modules or shapes listed in a different order — returns
// the byte-identical body from the cache (X-Cache: hit). /v1/healthz
// answers liveness probes, /v1/stats reports cache hit ratio, queue
// depth, in-flight solves and rolling SLO attainment, /v1/fabrics
// lists the device catalog, and GET /metrics serves the metric
// registry live in Prometheus text format: the service counters, the
// solver phase timers and the solver's own search counters.
//
// The daemon also serves stateful online sessions: POST /v1/sessions
// opens a fabric-backed session with a selectable greedy manager,
// POST /v1/sessions/{id}/place admits one arrival (falling back to a
// CP replan when greedy placement is blocked), DELETE
// /v1/sessions/{id}/modules/{task} releases a resident, POST
// /v1/sessions/{id}/defrag compacts the layout and prices every
// relocation via the frame model, and GET /v1/sessions/{id}/stats
// reports occupancy and fragmentation. Idle sessions expire after
// -session-ttl; -max-sessions bounds the table with LRU eviction.
//
// Every request is traced: the response carries an X-Trace-Id header,
// one JSON access-log line per request goes to -access-log (stdout by
// default), /debug/traces dumps the recent and slowest request
// traces, and -trace streams the span/solver event JSONL that
// cmd/tracecat renders into per-trace waterfalls.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/service"
)

// cliOpts carries the parsed command line into run.
type cliOpts struct {
	addr           string
	workers        int
	cacheEntries   int
	maxInFlight    int
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	tracePath      string
	accessLog      string
	sloLatency     time.Duration
	degrade        bool
	faults         string
	faultsSeed     int64
	maxSessions    int
	sessionTTL     time.Duration
}

func main() {
	var o cliOpts
	flag.StringVar(&o.addr, "addr", "localhost:8080", "listen address")
	flag.IntVar(&o.workers, "workers", 2, "concurrent solver goroutines")
	flag.IntVar(&o.cacheEntries, "cache-entries", 1024, "canonical-instance cache capacity")
	flag.IntVar(&o.maxInFlight, "max-inflight", 64, "admission queue capacity before 429")
	flag.DurationVar(&o.defaultTimeout, "default-timeout", 10*time.Second, "per-solve budget when the request sets none")
	flag.DurationVar(&o.maxTimeout, "max-timeout", time.Minute, "cap on the per-solve budget a request may ask for")
	flag.StringVar(&o.tracePath, "trace", "", "stream span and solver events as JSONL to this path (- for stdout, feed to tracecat)")
	flag.StringVar(&o.accessLog, "access-log", "-", "write one JSON line per request to this path (- for stdout, empty to disable)")
	flag.DurationVar(&o.sloLatency, "slo-latency", 500*time.Millisecond, "request-latency objective for /v1/stats SLO accounting")
	flag.BoolVar(&o.degrade, "degrade", true, "serve approximate baseline placements when the exact solve times out or is shed")
	flag.StringVar(&o.faults, "faults", "", "fault-injection rules, e.g. 'solver:timeout:0.2;cache:latency:0.5:10ms' (chaos testing; empty disables)")
	flag.Int64Var(&o.faultsSeed, "faults-seed", 1, "PRNG seed for -faults, for reproducible chaos runs")
	flag.IntVar(&o.maxSessions, "max-sessions", 256, "live online sessions before LRU eviction")
	flag.DurationVar(&o.sessionTTL, "session-ttl", 15*time.Minute, "idle time after which an online session expires")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "placed:", err)
		os.Exit(1)
	}
}

func run(o cliOpts) (err error) {
	session, err := obs.Start(obs.Config{TracePath: o.tracePath})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := session.Close(); err == nil {
			err = cerr
		}
	}()
	// The service traces every request; this tracer only adds the span
	// JSONL stream, which flows when -trace opened a sink.
	tracer := obs.NewTracer(obs.TracerConfig{Recorder: session.Recorder})

	var accessLog io.Writer
	switch o.accessLog {
	case "":
	case "-":
		accessLog = os.Stdout
	default:
		f, ferr := os.Create(o.accessLog)
		if ferr != nil {
			return fmt.Errorf("access log: %w", ferr)
		}
		defer f.Close()
		accessLog = f
	}

	faults, err := faultinject.Parse(o.faults, o.faultsSeed)
	if err != nil {
		return err
	}
	if faults != nil {
		fmt.Printf("placed: fault injection ACTIVE: %s (seed %d)\n", faults, o.faultsSeed)
	}

	svc := service.New(service.Config{
		Workers:        o.workers,
		CacheEntries:   o.cacheEntries,
		MaxInFlight:    o.maxInFlight,
		DefaultTimeout: o.defaultTimeout,
		MaxTimeout:     o.maxTimeout,
		Registry:       obs.NewRegistry(),
		Tracer:         tracer,
		AccessLog:      accessLog,
		SLOLatency:     o.sloLatency,
		Degrade:        o.degrade,
		Faults:         faults,
		MaxSessions:    o.maxSessions,
		SessionTTL:     o.sessionTTL,
	})
	defer svc.Close()

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("placed: serving on http://%s (workers=%d cache=%d max-inflight=%d)\n",
			o.addr, o.workers, o.cacheEntries, o.maxInFlight)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("placed: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// workers is the service pool size: one solver goroutine per CPU, at
// most two, so the benchmark never asks for more parallelism than the
// host has.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// solveTimeout is the per-solve budget every benchmark request asks for.
// It is far above any solve the workloads contain, so a result is never
// cut by the clock and stays deterministic.
const solveTimeout = 60 * time.Second

// server is the real placement service, started in-process behind a
// loopback listener with a benchmark-owned registry.
type server struct {
	svc  *service.Server
	reg  *obs.Registry
	hs   *http.Server
	base string
	done chan error
}

// startServer starts a fresh service; a non-nil tracer turns request
// tracing on.
func startServer(tracer *obs.Tracer) (*server, error) {
	reg := obs.NewRegistry()
	cfg := serviceConfig()
	cfg.Workers, cfg.Registry, cfg.Tracer = workers(), reg, tracer
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		reg:  reg,
		hs:   &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// drains the worker pool.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	return err
}

// handlerSeconds is the total time the service spent inside its request
// handlers, from the service_request timer it exports.
func (s *server) handlerSeconds() float64 {
	return s.reg.Histogram("service_request_seconds").Sum()
}

// client is a closed-loop caller: every call waits for its answer.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * solveTimeout}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one answered call.
type reply struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
}

// do sends one request and reads the whole answer; latency covers both.
func (c *client) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b, latency: lat}, nil
}

// totalAlloc reads the cumulative heap allocation of the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sortedMs returns the latencies in milliseconds, ascending.
func sortedMs(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of ascending values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidates for the tail latency, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, and its value. With fewer than forty samples
// no candidate qualifies and the median stands in.
func tail(sorted []float64) (pct, value float64) {
	n := float64(len(sorted))
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10-1e-9 {
			return p, quantile(sorted, p/100)
		}
	}
	return 50, quantile(sorted, 0.5)
}

// totalMs sums latencies in milliseconds.
func totalMs(lat []time.Duration) float64 {
	var t time.Duration
	for _, d := range lat {
		t += d
	}
	return ms(t)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

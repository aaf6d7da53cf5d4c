package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// freePort reserves an ephemeral port and releases it for the daemon.
// The tiny race window between Close and ListenAndServe is acceptable
// in tests.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches run() on a free port and waits for /v1/healthz.
func startDaemon(t *testing.T, o cliOpts) (base string, done chan error) {
	t.Helper()
	o.addr = freePort(t)
	done = make(chan error, 1)
	go func() { done <- run(o) }()
	base = "http://" + o.addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("daemon exited during startup: %v", err)
		default:
		}
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, done
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sigterm asks the daemon to shut down the way an init system would.
// run's signal handler intercepts the signal, so the test binary
// survives the delivery.
func sigterm(t *testing.T, done chan error) error {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
		return nil
	}
}

// TestDaemonSmoke is the in-repo twin of the CI smoke job: start the
// daemon, check liveness, place the committed smoke request twice
// (miss then hit, byte-identical bodies), read stats and the live
// metrics scrape, shut down via SIGTERM.
func TestDaemonSmoke(t *testing.T) {
	base, done := startDaemon(t, cliOpts{
		workers:        2,
		cacheEntries:   64,
		maxInFlight:    16,
		defaultTimeout: 20 * time.Second,
		maxTimeout:     30 * time.Second,
	})

	req, err := os.ReadFile("testdata/smoke-request.json")
	if err != nil {
		t.Fatal(err)
	}
	body1, cache1 := place(t, base, req)
	if cache1 != "miss" {
		t.Fatalf("first place: X-Cache = %q, want miss", cache1)
	}
	body2, cache2 := place(t, base, req)
	if cache2 != "hit" {
		t.Fatalf("second place: X-Cache = %q, want hit", cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", body1, body2)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"cacheHits":1`, `"solves":1`} {
		if !bytes.Contains(stats, []byte(want)) {
			t.Fatalf("stats missing %s: %s", want, stats)
		}
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"\nservice_solves_total 1\n", "\nsolver_propagator_runs_total{"} {
		if !bytes.Contains(scrape, []byte(want)) {
			t.Fatalf("/metrics missing %q: %s", want, scrape)
		}
	}

	if err := sigterm(t, done); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

func place(t *testing.T, base string, req []byte) (body []byte, cache string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d body %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache")
}

// TestDaemonTracing drives the full observability round trip: a traced
// request returns X-Trace-Id, shows up in /debug/traces and the access
// log, and its spans land in the -trace JSONL stream.
func TestDaemonTracing(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/spans.jsonl"
	accessPath := dir + "/access.log"
	base, done := startDaemon(t, cliOpts{
		workers:        2,
		cacheEntries:   64,
		maxInFlight:    16,
		defaultTimeout: 20 * time.Second,
		maxTimeout:     30 * time.Second,
		tracePath:      tracePath,
		accessLog:      accessPath,
		sloLatency:     time.Millisecond,
	})

	req, err := os.ReadFile("testdata/smoke-request.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/place", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32-hex", traceID)
	}

	dbg, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := io.ReadAll(dbg.Body)
	dbg.Body.Close()
	for _, want := range []string{traceID, `"solve"`, `"queue_wait"`, `"nodes"`} {
		if !bytes.Contains(dump, []byte(want)) {
			t.Fatalf("/debug/traces missing %s: %s", want, dump)
		}
	}

	stats, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody, _ := io.ReadAll(stats.Body)
	stats.Body.Close()
	for _, want := range []string{`"slo"`, `"latencyObjectiveMs":1`, `"windows"`} {
		if !bytes.Contains(statsBody, []byte(want)) {
			t.Fatalf("stats missing %s: %s", want, statsBody)
		}
	}

	if err := sigterm(t, done); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}

	access, err := os.ReadFile(accessPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(access, []byte(traceID)) || !bytes.Contains(access, []byte(`"path":"/v1/place"`)) {
		t.Fatalf("access log missing the request: %s", access)
	}

	spans, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"span"`, traceID, `"span":"solve"`} {
		if !bytes.Contains(spans, []byte(want)) {
			t.Fatalf("span stream missing %s", want)
		}
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run(cliOpts{addr: "256.0.0.1:http-nope"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestSmokeRequestDecodes keeps the committed smoke request in step
// with the wire format without spinning up a daemon.
func TestSmokeRequestDecodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/smoke-request.json")
	if err != nil {
		t.Fatal(err)
	}
	creq, err := service.DecodeRequest(bytes.NewReader(raw), service.Config{})
	if err != nil {
		t.Fatalf("smoke request no longer decodes: %v", err)
	}
	if creq.Fabric != "virtex4-like-72x60" || len(creq.Modules) != 6 {
		t.Fatalf("smoke request changed shape: fabric %s, %d modules", creq.Fabric, len(creq.Modules))
	}
	if _, err := creq.Digest(); err != nil {
		t.Fatal(err)
	}
}

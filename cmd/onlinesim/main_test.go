package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func baseOpts() cliOpts {
	return cliOpts{
		device:   "spartan-like-24x16",
		tasks:    30,
		seed:     1,
		interarr: 3,
		duration: 60,
		clbMin:   4,
		clbMax:   10,
	}
}

func TestRunAllManagers(t *testing.T) {
	if err := run(baseOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleManager(t *testing.T) {
	o := baseOpts()
	o.tasks = 20
	o.manager = "first-fit"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRegionFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.spec")
	if err := os.WriteFile(path, []byte("region t 20 10\nbramcols 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOpts()
	o.device = ""
	o.regionPath = path
	o.tasks = 15
	o.seed = 2
	o.bramMax = 1
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunMetrics checks the online-simulation instrumentation: the
// replan arm reports per-request latency histograms and replan counts
// through the -metrics surface. The stream is loaded enough that
// greedy first-fit rejects arrivals, so replans run.
func TestRunMetrics(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	regionPath := filepath.Join(dir, "r.spec")
	if err := os.WriteFile(regionPath, []byte("region t 20 10\nbramcols 5 14\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOpts()
	o.device, o.regionPath = "", regionPath
	o.tasks, o.interarr, o.duration = 40, 2, 40
	o.clbMin, o.clbMax, o.bramMax = 4, 14, 1
	o.manager = "first-fit+cp-replan"
	o.obs = obs.Config{MetricsPath: metricsPath}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"online_requests_total",
		`online_place_latency_seconds_bucket{outcome="accepted",le=`,
		"online_service_level",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	// Every replan follows a greedy rejection, and a replan that fails
	// is a rejection too, so 0 < replans <= rejected on this stream.
	replans, rejected := promValue(t, text, "online_replans_total"), promValue(t, text, "online_rejected_total")
	if replans <= 0 || replans > rejected {
		t.Errorf("online_replans_total = %v, want in (0, online_rejected_total=%v]", replans, rejected)
	}
}

// promValue returns the value of an unlabelled metric in Prometheus
// text format.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("metrics output missing %s:\n%s", name, text)
	return 0
}

func TestRunErrors(t *testing.T) {
	o := baseOpts()
	o.device = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown device accepted")
	}
	o = baseOpts()
	o.tasks = 10
	o.manager = "bogus-manager"
	if err := run(o); err == nil {
		t.Error("unknown manager accepted")
	}
	o = baseOpts()
	o.device = ""
	o.regionPath = "/nonexistent"
	if err := run(o); err == nil {
		t.Error("missing region file accepted")
	}
}

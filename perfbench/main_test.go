package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload to a few requests.
func tinySizes() sizes {
	return sizes{
		coldSeeds:    []int64{1},
		coldModules:  6,
		coldStall:    50,
		hitPool:      2,
		hitModules:   6,
		hitStall:     10,
		churnScripts: []int64{1},
		churnOps:     40,
		churnFill:    10,
		churnSpan:    time.Hour,
	}
}

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 300 * time.Millisecond, trace: trace, size: tinySizes()}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryMetricIsPrinted runs a tiny instance of each workload,
// untraced and traced, and checks that the result names exactly the
// metrics BENCHMARK.json declares, each with its declared unit.
func TestEveryMetricIsPrinted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var log strings.Builder
			res, err := run(tinyConfig(w.Name, trace), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, declared unit %q", w.Name, trace, name, m, unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, name)
				}
				if !strings.Contains(log.String(), name) {
					t.Errorf("%s trace=%v: summary does not show %s", w.Name, trace, name)
				}
			}
		}
	}
}

// corrupt moves the first placement of an answer off the fabric.
func corrupt(body []byte) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	if ps, ok := m["placements"].([]any); ok && len(ps) > 0 {
		ps[0].(map[string]any)["x"] = -1
	} else if placed, _ := m["placed"].(bool); placed {
		m["x"] = -1
	}
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// TestCorruptedPlacementIsReported checks that the correctness gate
// catches a placement the benchmark itself corrupts.
func TestCorruptedPlacementIsReported(t *testing.T) {
	for name := range workloads {
		cfg := tinyConfig(name, false)
		cfg.tamper = corrupt
		var log strings.Builder
		res, err := run(cfg, &log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted placements passed the check (correct=%v failed=%d)\n%s",
				name, res.Correct, res.Failed, log.String())
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {39, 50}} {
		if pct, _ := tail(xs[:c.n]); pct != c.want {
			t.Errorf("tail of %d samples at p%g, want p%g", c.n, pct, c.want)
		}
	}
}

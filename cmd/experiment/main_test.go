package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func testCfg() experiments.RunConfig {
	return experiments.RunConfig{
		Runs: 1,
		Seed: 1,
		Workload: workload.Config{
			NumModules: 5, CLBMin: 8, CLBMax: 20, BRAMMax: 2, Alternatives: 2,
		},
		StallNodes: 200,
		Timeout:    10 * time.Second,
	}
}

func TestRunFigures(t *testing.T) {
	for _, exp := range []string{"fig1", "fig4"} {
		var sb strings.Builder
		if err := run(&sb, exp, testCfg()); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestRunTable1Reduced(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "table1", testCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Design alternatives") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunTable1BenchJSON(t *testing.T) {
	cfg := testCfg()
	cfg.BenchPath = filepath.Join(t.TempDir(), "BENCH_table1.json")
	var sb strings.Builder
	if err := run(&sb, "table1", cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.BenchPath)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Experiment string `json:"experiment"`
		Runs       int    `json:"runs"`
		Records    []struct {
			Arm         string  `json:"arm"`
			Seconds     float64 `json:"seconds"`
			Nodes       int64   `json:"nodes"`
			Backtracks  int64   `json:"backtracks"`
			Utilization float64 `json:"utilization"`
			Reason      string  `json:"reason"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("bench JSON: %v", err)
	}
	if got.Experiment != "table1" || got.Runs != 1 || len(got.Records) != 2 {
		t.Fatalf("bench file: %+v", got)
	}
	arms := map[string]bool{}
	for _, r := range got.Records {
		arms[r.Arm] = true
		if r.Seconds <= 0 || r.Nodes <= 0 || r.Utilization <= 0 || r.Reason == "" {
			t.Errorf("incomplete record: %+v", r)
		}
	}
	if !arms["with"] || !arms["without"] {
		t.Fatalf("arms: %v", arms)
	}
}

// TestTable1WritesNoFileByDefault runs table1 from an empty directory
// with no -bench-out flag and checks it writes nothing there: only an
// explicit -bench-out writes the per-testcase JSON.
func TestTable1WritesNoFileByDefault(t *testing.T) {
	exp, cfg, _, err := parseFlags([]string{"-exp", "table1", "-runs", "1", "-modules", "5", "-stall", "200", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var sb strings.Builder
	if err := run(&sb, exp, cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || strings.Contains(sb.String(), "wrote") {
		t.Fatalf("a table1 run without -bench-out wrote %v:\n%s", entries, sb.String())
	}
}

func TestRunUnknown(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "bogus", testCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInScope(t *testing.T) {
	cases := []struct {
		analyzer, path string
		want           bool
	}{
		{"nondeterminism", "repro/internal/core", true},
		{"nondeterminism", "repro/internal/obs", true},
		{"nondeterminism", "repro/internal/rtsim", false},
		{"nondeterminism", "repro/internal/experiments", false},
		{"obsgate", "repro/internal/csp", true},
		{"obsgate", "repro/internal/obs", true},
		{"obsgate", "repro/internal/service", false},
		{"optvalidate", "repro/internal/csp", true},
		{"optvalidate", "repro/internal/core", true},
		{"optvalidate", "repro/internal/service", false},
		{"nondeterminism", "repro/internal/presolve", true},
		{"obsgate", "repro/internal/presolve", true},
		{"lockscope", "repro/internal/presolve", true},
		{"ctxflow", "repro/internal/presolve", true},
		{"goroleak", "repro/internal/presolve", true},
		{"nakedpanic", "repro/internal/grid", true},
		{"nakedpanic", "repro/cmd/placer", false},
		{"nakedpanic", "repro/examples/quickstart", false},
		{"lockscope", "repro/internal/service", true},
		{"lockscope", "repro/internal/csp", true},
		{"lockscope", "repro/internal/workload", false},
		{"ctxflow", "repro/internal/service", true},
		{"ctxflow", "repro/internal/client", true},
		{"ctxflow", "repro/internal/csp", false},
		{"goroleak", "repro/internal/obs", true},
		{"goroleak", "repro/internal/rtsim", false},
		{"atomicsafe", "repro/internal/anything", true},
		{"atomicsafe", "repro/cmd/placer", false},
		{"syncmisuse", "repro/internal/service", true},
		{"syncmisuse", "repro/examples/quickstart", false},
	}
	for _, c := range cases {
		if got := inScope(c.analyzer, c.path); got != c.want {
			t.Errorf("inScope(%q, %q) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestScopesCoverAllAnalyzers keeps the scope table in lockstep with
// the suite: an analyzer added without a scope entry would silently
// run nowhere-in-particular (empty scope = everywhere), which should
// be a deliberate choice, not an omission.
func TestScopesCoverAllAnalyzers(t *testing.T) {
	// Import cycle note: the driver's scope table is data, so the
	// check lives here rather than in the library's own tests.
	for name := range scopes {
		found := false
		for _, a := range analyzersUnderTest() {
			if a == name {
				found = true
			}
		}
		if !found {
			t.Errorf("scopes entry %q matches no registered analyzer", name)
		}
	}
	for _, a := range analyzersUnderTest() {
		if _, ok := scopes[a]; !ok {
			t.Errorf("analyzer %q has no scopes entry", a)
		}
	}
}

func analyzersUnderTest() []string {
	return []string{
		"nondeterminism", "obsgate", "optvalidate", "nakedpanic",
		"lockscope", "ctxflow", "goroleak", "atomicsafe", "syncmisuse",
	}
}

// writeModule materializes a throwaway module whose packages sit under
// internal/ so the repo's scope fragments match them.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module throwaway\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunCleanModule runs the library pipeline over a tiny synthetic
// module and expects zero findings and zero errors.
func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/csp/p.go": `
// Package csp is a miniature stand-in with fully compliant code.
package csp

// Store is the solver state.
type Store struct{}

// Propagator filters domains.
type Propagator interface {
	Propagate(st *Store) error
}

type eq struct{ c int }

func (p *eq) Propagate(st *Store) error { return nil }
`,
	})
	diags, err := run(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("run reported %d findings on compliant code: %v", len(diags), diags)
	}
}

func TestExitCleanOnFindingFreeModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/ok/ok.go": `
// Package ok is finding-free.
package ok

// Double doubles.
func Double(n int) int { return 2 * n }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitClean, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote diagnostics: %s", stdout.String())
	}
}

func TestExitFindingsOnDiagnostics(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/bad/bad.go": `
// Package bad trips nakedpanic.
package bad

func boom() {
	panic("undocumented")
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != exitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitFindings, stderr.String())
	}
	if !strings.Contains(stdout.String(), "nakedpanic") {
		t.Errorf("diagnostic output missing the analyzer name: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing the findings summary: %s", stderr.String())
	}
}

func TestExitErrorOnBrokenModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/broken/broken.go": `
// Package broken does not type-check.
package broken

func f() int { return undefinedIdentifier }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != exitError {
		t.Fatalf("exit code = %d, want %d (stdout: %s)", code, exitError, stdout.String())
	}
	if stderr.Len() == 0 {
		t.Error("load error produced no stderr explanation")
	}
}

func TestJSONFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/bad/bad.go": `
// Package bad trips nakedpanic.
package bad

func boom() {
	panic("undocumented")
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-json", "-dir", dir, "./..."}, &stdout, &stderr); code != exitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitFindings, stderr.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "nakedpanic" || f.Line != 6 || filepath.Base(f.File) != "bad.go" || f.Message == "" {
		t.Errorf("unexpected finding payload: %+v", f)
	}
}

func TestJSONCleanRunIsEmptyArray(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/ok/ok.go": `
// Package ok is finding-free.
package ok

// Triple triples.
func Triple(n int) int { return 3 * n }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-json", "-dir", dir, "./..."}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitClean, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json run = %q, want empty array", got)
	}
}

// Command solverlint runs the project's custom static-analysis suite
// (see internal/analysis/solverlint) over the repository:
// nondeterminism, optvalidate, nakedpanic, lockscope, ctxflow,
// goroleak, atomicsafe, and syncmisuse. Each
// analyzer applies only to the packages whose invariants it enforces —
// e.g. nondeterminism covers the search/propagation packages but not
// the workload generators, which are deliberately random.
//
// Usage:
//
//	solverlint [-list] [-json] [-dir dir] [packages]
//
// With no package patterns, ./... is checked. Diagnostics print as
// file:line:col: analyzer: message, or as a JSON array with -json.
// The exit status separates the three outcomes machine consumers care
// about: 0 when the tree is clean, 1 when any finding was reported,
// 2 when loading or analysis itself failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis/solverlint"
)

// Exit statuses of the driver.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

// scopes maps each analyzer to the import-path fragments it applies
// to. An empty list means every loaded package.
var scopes = map[string][]string{
	// Determinism matters on the search and propagation call paths —
	// kernel, geometric propagators, placer — and in canonicalization,
	// where a wandering digest would silently split or alias cache
	// entries. The span-recording layer in internal/obs sits on those
	// same call paths (per-request traces wrap every solve), so it is
	// held to the same bar; its deliberate uses of wall-clock time and
	// crypto/rand ids carry explicit allow pragmas. The fault injector
	// must replay chaos runs exactly, so its deliberately seeded PRNG
	// sites are pragma'd too. Workload generators and experiment
	// drivers are deliberately seeded-random.
	// The online managers and the session engine must stay
	// deterministic too: a session replayed from the same arrival
	// stream must produce the same placements.
	"nondeterminism": {"internal/csp", "internal/geost", "internal/core", "internal/presolve", "internal/canon", "internal/obs", "internal/faultinject", "internal/online"},
	// Options/OptionError validation lives in the csp kernel and at
	// the core request boundary (RequestOptions.Validate).
	"optvalidate": {"internal/csp", "internal/core"},
	// Library packages must not panic undocumented; cmd/ and examples/
	// binaries are user-facing drivers, not libraries.
	"nakedpanic": {"internal/"},
	// Critical-section discipline covers the serving path — the
	// placement service, its client, the fault injector, the span
	// recorder — and the parallel solver kernel, the packages where a
	// convoyed mutex stalls live requests.
	"lockscope": {"internal/service", "internal/client", "internal/faultinject", "internal/obs", "internal/csp", "internal/presolve"},
	// Context threading is a request-path contract: the service, its
	// client, and the fault injector all operate on behalf of some
	// request and must propagate its cancellation.
	"ctxflow": {"internal/service", "internal/client", "internal/faultinject", "internal/presolve"},
	// Goroutine exit proofs matter in the long-lived packages: a
	// daemon accumulates leaked goroutines until it dies. The solver
	// kernel's multi-worker branch-and-bound spawns goroutines too.
	"goroleak": {"internal/service", "internal/client", "internal/faultinject", "internal/obs", "internal/csp", "internal/presolve"},
	// Atomic access discipline and sync-primitive hygiene are
	// library-wide invariants, like nakedpanic.
	"atomicsafe": {"internal/"},
	"syncmisuse": {"internal/"},
}

func inScope(analyzer, importPath string) bool {
	fragments := scopes[analyzer]
	if len(fragments) == 0 {
		return true
	}
	for _, f := range fragments {
		if strings.Contains(importPath, f) {
			return true
		}
	}
	return false
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable driver body: it parses args, runs the
// suite, writes diagnostics to stdout and status chatter to stderr,
// and returns the process exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solverlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and their scopes, then exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array instead of file:line:col lines")
	dir := fs.String("dir", ".", "module directory to analyze")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: solverlint [-list] [-json] [-dir dir] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *list {
		for _, a := range solverlint.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
			fmt.Fprintf(stdout, "%-16s scope: %s\n", "", strings.Join(scopes[a.Name], ", "))
		}
		return exitClean
	}
	diags, err := run(*dir, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "solverlint:", err)
		return exitError
	}
	if *asJSON {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "solverlint:", err)
			return exitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "solverlint: %d finding(s)\n", len(diags))
		return exitFindings
	}
	return exitClean
}

// run loads the packages and applies every in-scope analyzer,
// returning the collected diagnostics.
func run(dir string, patterns []string) ([]solverlint.Diagnostic, error) {
	pkgs, err := solverlint.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []solverlint.Diagnostic
	for _, a := range solverlint.Analyzers() {
		for _, pkg := range pkgs {
			if !inScope(a.Name, pkg.Path) {
				continue
			}
			ds, err := solverlint.RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			diags = append(diags, ds...)
		}
	}
	return diags, nil
}

// jsonFinding is the machine-readable diagnostic shape: flat fields,
// stable names, one object per finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON renders diagnostics as a JSON array (never null: a clean
// run is an empty array).
func writeJSON(w io.Writer, diags []solverlint.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

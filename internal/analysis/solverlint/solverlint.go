// Package solverlint is a suite of project-specific static analyzers
// that enforce the solver's cross-cutting invariants mechanically:
//
//   - nondeterminism: no time.Now/time.Since, math/rand, or map
//     iteration in search/propagation packages, outside the documented
//     deadline/anytime sites. Exhaustive parallel runs must be
//     bit-identical to sequential runs for any worker count; a single
//     stray wall-clock read or map-order dependence silently breaks
//     that.
//   - optvalidate: every numeric csp.Options field must be covered by
//     the typed OptionError validation in withDefaults.
//   - nakedpanic: panic in library packages only inside functions whose
//     doc comment declares the panic (documented invariant-violation
//     helpers).
//
// The suite is modelled on golang.org/x/tools/go/analysis but is
// self-contained: the toolchain in this environment has no module
// proxy access, so the framework (package loading, diagnostics,
// suppression comments, fixture tests) is rebuilt here on the standard
// library alone. Packages are loaded with `go list -export` and
// type-checked with go/types against gc export data, which works fully
// offline.
//
// A diagnostic is suppressed by a line comment of the form
//
//	//solverlint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. A whole file is
// exempted from one analyzer with
//
//	//solverlint:allow-file <analyzer> <reason>
//
// anywhere in the file (conventionally next to the package clause);
// file scope exists for files whose entire purpose violates an
// invariant (e.g. a deliberately randomized workload generator), not
// as a bulk alternative to per-line justification. In both forms the
// reason is mandatory: an undocumented suppression is itself a
// finding.
package solverlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, in the style of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //solverlint:allow comments.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding: a position plus a message, tagged with the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allowed     map[allowKey]bool
	fileAllowed map[fileAllowKey]bool
	diags       []Diagnostic
}

// allowKey identifies one (file, line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// fileAllowKey identifies one (file, analyzer) whole-file suppression.
type fileAllowKey struct {
	file     string
	analyzer string
}

const (
	allowPrefix     = "//solverlint:allow "
	allowFilePrefix = "//solverlint:allow-file "
)

// buildAllowed indexes every //solverlint:allow comment of the files.
// A line comment covers its own line and the following line, so it can
// sit at the end of the offending line or directly above the offending
// declaration. An allow-file comment covers its whole file.
func buildAllowed(fset *token.FileSet, files []*ast.File) (map[allowKey]bool, map[fileAllowKey]bool) {
	allowed := map[allowKey]bool{}
	fileAllowed := map[fileAllowKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, allowFilePrefix); ok {
					name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
					if name == "" || strings.TrimSpace(reason) == "" {
						continue
					}
					pos := fset.Position(c.Pos())
					fileAllowed[fileAllowKey{file: pos.Filename, analyzer: name}] = true
					continue
				}
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					// A suppression without a reason is ignored, so the
					// underlying diagnostic resurfaces.
					continue
				}
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					allowed[allowKey{file: pos.Filename, line: line, analyzer: name}] = true
				}
			}
		}
	}
	return allowed, fileAllowed
}

// Reportf records a diagnostic at pos unless an allow comment covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed[allowKey{file: position.Filename, line: position.Line, analyzer: p.Analyzer.Name}] {
		return
	}
	if p.fileAllowed[fileAllowKey{file: position.Filename, analyzer: p.Analyzer.Name}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the type checker recorded
// none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// RunAnalyzer applies a to pkg and returns the surviving diagnostics
// sorted by position.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	allowed, fileAllowed := buildAllowed(pkg.Fset, pkg.Files)
	pass := &Pass{
		Analyzer:    a,
		Fset:        pkg.Fset,
		Files:       pkg.Files,
		Pkg:         pkg.Types,
		TypesInfo:   pkg.Info,
		allowed:     allowed,
		fileAllowed: fileAllowed,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
	}
	sortDiagnostics(pass.diags)
	return pass.diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Analyzers returns the full suite in stable order: the three solver
// invariants followed by the five concurrency/context-safety
// analyzers of the serving path (the "concsafe" half of the suite).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism,
		OptValidate,
		NakedPanic,
		LockScope,
		CtxFlow,
		GoroLeak,
		AtomicSafe,
		SyncMisuse,
	}
}

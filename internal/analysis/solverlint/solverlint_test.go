package solverlint

import (
	"path/filepath"
	"testing"
)

func TestNondeterminism(t *testing.T) { RunFixture(t, Nondeterminism, "nondeterminism") }
func TestObsGate(t *testing.T)        { RunFixture(t, ObsGate, "obsgate") }
func TestOptValidate(t *testing.T)    { RunFixture(t, OptValidate, "optvalidate") }
func TestNakedPanic(t *testing.T)     { RunFixture(t, NakedPanic, "nakedpanic") }
func TestLockScope(t *testing.T)      { RunFixture(t, LockScope, "lockscope") }
func TestCtxFlow(t *testing.T)        { RunFixture(t, CtxFlow, "ctxflow") }
func TestGoroLeak(t *testing.T)       { RunFixture(t, GoroLeak, "goroleak") }
func TestAtomicSafe(t *testing.T)     { RunFixture(t, AtomicSafe, "atomicsafe") }
func TestSyncMisuse(t *testing.T)     { RunFixture(t, SyncMisuse, "syncmisuse") }

// TestAnalyzersRegistered pins the suite composition: the driver and
// the docs both enumerate these nine names.
func TestAnalyzersRegistered(t *testing.T) {
	want := []string{
		"nondeterminism", "obsgate", "optvalidate", "nakedpanic",
		"lockscope", "ctxflow", "goroleak", "atomicsafe", "syncmisuse",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}

// TestAllowCommentRequiresReason checks that a bare //solverlint:allow
// without a justification does not suppress anything.
func TestAllowCommentRequiresReason(t *testing.T) {
	pkg := loadTestPkg(t, map[string]string{"p.go": `
// Package p is a throwaway.
package p

func f() {
	panic("no reason given") //solverlint:allow nakedpanic
}
`})
	diags, err := RunAnalyzer(NakedPanic, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("reason-less allow comment suppressed the diagnostic: got %v", diags)
	}
}

// TestAllowCommentLineScope checks the reach of a line-level pragma:
// its own line and the next line, nothing further.
func TestAllowCommentLineScope(t *testing.T) {
	pkg := loadTestPkg(t, map[string]string{"p.go": `
// Package p is a throwaway.
package p

func f() {
	//solverlint:allow nakedpanic covers the next line only
	panic("suppressed")
}

func g() {
	//solverlint:allow nakedpanic too far away to matter
	_ = 0
	panic("not suppressed")
}
`})
	diags, err := RunAnalyzer(NakedPanic, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the out-of-range panic reported, got %v", diags)
	}
	if got := diags[0].Pos.Line; got != 13 {
		t.Errorf("diagnostic on line %d, want line 13 (the panic two lines past its pragma)", got)
	}
}

// TestAllowCommentWrongAnalyzer checks that a pragma naming a
// different analyzer does not suppress this one's finding.
func TestAllowCommentWrongAnalyzer(t *testing.T) {
	pkg := loadTestPkg(t, map[string]string{"p.go": `
// Package p is a throwaway.
package p

func f() {
	//solverlint:allow obsgate pragma for a different analyzer
	panic("not suppressed")
}
`})
	diags, err := RunAnalyzer(NakedPanic, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("wrong-analyzer pragma changed the diagnostics: got %v", diags)
	}
}

// TestAllowFileScope checks the file-level pragma: it silences the
// named analyzer across its whole file, but not in sibling files and
// not for other analyzers.
func TestAllowFileScope(t *testing.T) {
	pkg := loadTestPkg(t, map[string]string{
		"a.go": `
// Package p is a throwaway.
//solverlint:allow-file nakedpanic generated assertions audited in review
package p

func f() {
	panic("suppressed, start of file")
}

func g() {
	panic("suppressed, end of file")
}
`,
		"b.go": `
package p

func h() {
	panic("sibling file is not covered")
}
`,
	})
	diags, err := RunAnalyzer(NakedPanic, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want only the sibling-file panic, got %v", diags)
	}
	if base := filepath.Base(diags[0].Pos.Filename); base != "b.go" {
		t.Errorf("diagnostic in %s, want b.go", base)
	}
}

// TestAllowFileRequiresReason checks that a reason-less allow-file
// pragma suppresses nothing.
func TestAllowFileRequiresReason(t *testing.T) {
	pkg := loadTestPkg(t, map[string]string{"p.go": `
// Package p is a throwaway.
//solverlint:allow-file nakedpanic
package p

func f() {
	panic("no reason given")
}
`})
	diags, err := RunAnalyzer(NakedPanic, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("reason-less allow-file pragma suppressed the diagnostic: got %v", diags)
	}
}

// loadTestPkg writes files into a throwaway module and loads it.
func loadTestPkg(t *testing.T, files map[string]string) *Package {
	t.Helper()
	pkgs := loadTestPkgs(t, files)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

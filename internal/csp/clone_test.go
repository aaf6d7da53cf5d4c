package csp

import (
	"errors"
	"testing"
)

// snapshotDomains captures every variable's domain values, for
// bit-for-bit comparison after divergent mutation.
func snapshotDomains(st *Store) [][]int {
	out := make([][]int, len(st.Vars()))
	for i, v := range st.Vars() {
		out[i] = v.Domain().AppendValues(nil)
	}
	return out
}

func domainsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// buildCloneModel posts a model exercising every clonable propagator
// kind in the package, plus the notEqualOffset test fixture.
func buildCloneModel(t *testing.T) (*Store, []*Var) {
	t.Helper()
	st := NewStore()
	n := 6
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, n-1)
	}
	pairwiseDifferent(st, vars...)
	NotEqualOffset(st, vars[0], vars[1], 2)
	LessEq(st, vars[2], vars[3])
	LessEqOffset(st, vars[4], vars[5], 1)
	m := st.NewVarRange("max", 0, n-1)
	MaxOf(st, m, vars...)
	if err := st.Propagate(); err != nil {
		t.Fatalf("root propagation failed: %v", err)
	}
	return st, vars
}

// TestCloneDivergence is the store-cloning equivalence test: after
// Clone, propagation on either store must leave the other bit-for-bit
// unchanged, and both must reach the same fixpoints given the same
// decisions.
func TestCloneDivergence(t *testing.T) {
	st, vars := buildCloneModel(t)
	cl, err := st.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}

	// The clone starts bit-for-bit equal.
	if !domainsEqual(snapshotDomains(st), snapshotDomains(cl)) {
		t.Fatal("clone does not match source immediately after Clone")
	}

	// Diverge the clone: assign on the clone, check the source is
	// untouched.
	before := snapshotDomains(st)
	clVars := cl.Vars()
	cl.Push()
	if err := cl.Assign(clVars[vars[0].ID()], 0); err != nil {
		t.Fatalf("assign on clone: %v", err)
	}
	if err := cl.Propagate(); err != nil {
		t.Fatalf("propagate on clone: %v", err)
	}
	if !domainsEqual(before, snapshotDomains(st)) {
		t.Fatal("mutating the clone changed the source store")
	}

	// Diverge the source the other way: the clone keeps its own state.
	clBefore := snapshotDomains(cl)
	st.Push()
	if err := st.Assign(vars[0], 1); err != nil {
		t.Fatalf("assign on source: %v", err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatalf("propagate on source: %v", err)
	}
	if !domainsEqual(clBefore, snapshotDomains(cl)) {
		t.Fatal("mutating the source changed the clone")
	}

	// Pop both; same decision on both stores must reach the same
	// fixpoint (the cloned propagators behave identically).
	st.Pop()
	cl.Pop()
	st.Push()
	cl.Push()
	if err := st.Assign(vars[2], 2); err != nil {
		t.Fatalf("assign on source: %v", err)
	}
	if err := cl.Assign(clVars[vars[2].ID()], 2); err != nil {
		t.Fatalf("assign on clone: %v", err)
	}
	errSrc := st.Propagate()
	errCl := cl.Propagate()
	if (errSrc == nil) != (errCl == nil) {
		t.Fatalf("propagation outcomes diverge: source %v, clone %v", errSrc, errCl)
	}
	if errSrc == nil && !domainsEqual(snapshotDomains(st), snapshotDomains(cl)) {
		t.Fatal("same decision reached different fixpoints on source and clone")
	}
}

// TestClonePreservesSearch checks a clone solves the same problem to
// the same solutions as its source.
func TestClonePreservesSearch(t *testing.T) {
	build := func() *Store {
		st := NewStore()
		n := 5
		vars := make([]*Var, n)
		for i := range vars {
			vars[i] = st.NewVarRange("q", 0, n-1)
		}
		pairwiseDifferent(st, vars...)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				NotEqualOffset(st, vars[i], vars[j], j-i)
				NotEqualOffset(st, vars[j], vars[i], j-i)
			}
		}
		if err := st.Propagate(); err != nil {
			t.Fatalf("root propagation: %v", err)
		}
		return st
	}
	st := build()
	cl, err := st.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	count := func(s *Store) int {
		n := 0
		res, err := Solve(s, s.Vars(), Options{}, func(*Store) bool { n++; return true })
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if res.Reason != StopExhausted {
			t.Fatalf("search not exhausted: %v", res.Reason)
		}
		return n
	}
	if a, b := count(st), count(cl); a != b {
		t.Fatalf("source found %d solutions, clone found %d", a, b)
	}
}

// TestCloneRejectsFuncProp checks the typed error path: FuncProp cannot
// be re-targeted, so Clone must fail with *CloneError naming it.
func TestCloneRejectsFuncProp(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	st.Post(WithName(FuncProp(func(s *Store) error { return s.SetMax(x, 5) }), "test.adhoc"), x)
	cl, err := st.Clone()
	if cl != nil || err == nil {
		t.Fatal("Clone accepted a store holding a FuncProp")
	}
	var ce *CloneError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CloneError, got %T: %v", err, err)
	}
	if ce.Prop != "test.adhoc" {
		t.Fatalf("CloneError names %q, want test.adhoc", ce.Prop)
	}
}

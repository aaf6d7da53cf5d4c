package csp

import "testing"

// FuncProp wraps a plain function as a Propagator, for ad-hoc
// constraints in tests.
type FuncProp func(st *Store) error

// Propagate implements Propagator.
func (f FuncProp) Propagate(st *Store) error { return f(st) }

// notEqualOffset enforces x != y + c. No production model posts it;
// it is the model material of the engine tests (n-queens, Langford,
// Golomb, the random instances and the parallel suite), whose solution
// counts and optima are known.
type notEqualOffset struct {
	x, y *Var
	c    int
}

// NotEqual posts x != y.
func NotEqual(st *Store, x, y *Var) { NotEqualOffset(st, x, y, 0) }

// NotEqualOffset posts x != y + c.
func NotEqualOffset(st *Store, x, y *Var, c int) {
	st.Post(&notEqualOffset{x, y, c}, x, y)
}

// Name implements Named.
func (p *notEqualOffset) Name() string { return "csp.not-equal" }

func (p *notEqualOffset) Propagate(st *Store) error {
	if v, ok := p.y.dom.Singleton(); ok {
		if err := st.Remove(p.x, v+p.c); err != nil {
			return err
		}
	}
	if v, ok := p.x.dom.Singleton(); ok {
		if err := st.Remove(p.y, v-p.c); err != nil {
			return err
		}
	}
	return nil
}

// Remove deletes val from v's domain; notEqualOffset is its only caller.
func (st *Store) Remove(v *Var, val int) error {
	if !v.dom.Contains(val) {
		return nil
	}
	st.ensureOwned(v)
	if v.dom.Remove(val) {
		st.countPrune(v, v.dom.Size()+1)
		return st.changed(v)
	}
	return nil
}

// pairwiseDifferent posts NotEqual between every pair of vars: an
// all-different with forward checking.
func pairwiseDifferent(st *Store, vars ...*Var) {
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			NotEqual(st, vars[i], vars[j])
		}
	}
}

func TestNotEqual(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 3)
	y := st.NewVarRange("y", 0, 3)
	NotEqual(st, x, y)
	if err := st.Assign(x, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if y.Domain().Contains(2) {
		t.Fatal("2 not pruned from y")
	}
}

func TestNotEqualOffset(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 5)
	y := st.NewVarRange("y", 0, 5)
	NotEqualOffset(st, x, y, 2) // x != y + 2
	if err := st.Assign(y, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Domain().Contains(3) {
		t.Fatal("3 not pruned from x")
	}
}

func TestLessEq(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)
	LessEqOffset(st, x, y, 3) // x + 3 <= y
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Max() != 6 || y.Min() != 3 {
		t.Fatalf("bounds x.max=%d y.min=%d, want 6/3", x.Max(), y.Min())
	}
}

// TestAllDifferentPigeonhole searches a pairwise all-different model
// with more variables than values: the search must exhaust the space
// and find nothing.
func TestAllDifferentPigeonhole(t *testing.T) {
	st := NewStore()
	vars := []*Var{
		st.NewVarRange("a", 0, 1),
		st.NewVarRange("b", 0, 1),
		st.NewVarRange("c", 0, 1),
	}
	pairwiseDifferent(st, vars...)
	res, err := Solve(st, vars, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 0 || !res.Complete {
		t.Fatalf("pigeonhole: %d solutions, complete=%v", res.Solutions, res.Complete)
	}
}

// TestAllDifferentEnumeration enumerates a pairwise all-different
// model: every permutation exactly once.
func TestAllDifferentEnumeration(t *testing.T) {
	st := NewStore()
	vars := []*Var{
		st.NewVarRange("a", 0, 2),
		st.NewVarRange("b", 0, 2),
		st.NewVarRange("c", 0, 2),
	}
	pairwiseDifferent(st, vars...)
	res, err := Solve(st, vars, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 6 {
		t.Fatalf("permutations = %d, want 6", res.Solutions)
	}
}

func TestMaxOf(t *testing.T) {
	st := NewStore()
	a := st.NewVarRange("a", 2, 7)
	b := st.NewVarRange("b", 0, 4)
	m := st.NewVarRange("m", 0, 100)
	maxOf(st, m, a, b)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if m.Min() != 2 || m.Max() != 7 {
		t.Fatalf("m = %v, want [2,7]", m)
	}
	if err := st.SetMax(m, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if a.Max() != 3 || b.Max() != 3 {
		t.Fatalf("vars not pruned by m: a=%v b=%v", a, b)
	}
	// Only a can reach m.min (=2 after SetMax? m.min is 2; both reach).
	// Tighten: force b below 2 so only a supports m >= 2... then a.min
	// must rise to m.min.
	if err := st.SetMax(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if a.Min() != 2 {
		t.Fatalf("a.min = %d, want 2 (single support)", a.Min())
	}
}

func TestFuncProp(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	st.Post(FuncProp(func(s *Store) error { return s.SetMin(x, 4) }), x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Min() != 4 {
		t.Fatal("FuncProp did not run")
	}
}

// maxOf posts m = max(vars) (bounds consistency), the objective of the
// engine tests' branch-and-bound models.
func maxOf(st *Store, m *Var, vars ...*Var) {
	st.Post(&maxProp{vars: vars, m: m}, append([]*Var{m}, vars...)...)
}

type maxProp struct {
	vars []*Var
	m    *Var
}

func (p *maxProp) Propagate(st *Store) error {
	lo, hi := p.vars[0].Min(), p.vars[0].Max()
	for _, v := range p.vars[1:] {
		lo, hi = max(lo, v.Min()), max(hi, v.Max())
	}
	if err := st.SetMin(p.m, lo); err != nil {
		return err
	}
	if err := st.SetMax(p.m, hi); err != nil {
		return err
	}
	// Every var is <= m; if only one can reach m's minimum, push it up.
	var reach *Var
	n := 0
	for _, v := range p.vars {
		if err := st.SetMax(v, p.m.Max()); err != nil {
			return err
		}
		if v.Max() >= p.m.Min() {
			reach, n = v, n+1
		}
	}
	if n == 1 {
		return st.SetMin(reach, p.m.Min())
	}
	return nil
}

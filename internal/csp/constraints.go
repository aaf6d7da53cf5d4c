package csp

// lessEqOffset enforces x + c <= y (bounds consistency).
type lessEqOffset struct {
	x, y *Var
	c    int
}

// LessEq posts x <= y.
func LessEq(st *Store, x, y *Var) { LessEqOffset(st, x, y, 0) }

// LessEqOffset posts x + c <= y.
func LessEqOffset(st *Store, x, y *Var, c int) {
	st.Post(&lessEqOffset{x, y, c}, x, y)
}

// Name implements Named.
func (p *lessEqOffset) Name() string { return "csp.less-eq" }

func (p *lessEqOffset) Propagate(st *Store) error {
	if err := st.SetMax(p.x, p.y.Max()-p.c); err != nil {
		return err
	}
	return st.SetMin(p.y, p.x.Min()+p.c)
}

// maxOf enforces m = max(vars) (bounds consistency).
type maxOf struct {
	vars []*Var
	m    *Var
}

// MaxOf posts m = max(vars). It panics when vars is empty: the maximum
// of nothing is a modelling bug.
func MaxOf(st *Store, m *Var, vars ...*Var) {
	if len(vars) == 0 {
		panic("csp: MaxOf over no variables")
	}
	p := &maxOf{vars: vars, m: m}
	watched := append([]*Var{m}, vars...)
	st.Post(p, watched...)
}

// Name implements Named.
func (p *maxOf) Name() string { return "csp.max-of" }

func (p *maxOf) Propagate(st *Store) error {
	// m's bounds from the vars.
	loBest, hiBest := p.vars[0].Min(), p.vars[0].Max()
	for _, v := range p.vars[1:] {
		if v.Min() > loBest {
			loBest = v.Min()
		}
		if v.Max() > hiBest {
			hiBest = v.Max()
		}
	}
	if err := st.SetMin(p.m, loBest); err != nil {
		return err
	}
	if err := st.SetMax(p.m, hiBest); err != nil {
		return err
	}
	// Every var is <= m.
	for _, v := range p.vars {
		if err := st.SetMax(v, p.m.Max()); err != nil {
			return err
		}
	}
	// If only one var can reach m's minimum, push it up.
	if count := p.countReaching(p.m.Min()); count == 1 {
		for _, v := range p.vars {
			if v.Max() >= p.m.Min() {
				if err := st.SetMin(v, p.m.Min()); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

func (p *maxOf) countReaching(val int) int {
	n := 0
	for _, v := range p.vars {
		if v.Max() >= val {
			n++
		}
	}
	return n
}

// FuncProp wraps a plain function as a Propagator, for ad-hoc
// constraints.
type FuncProp func(st *Store) error

// Propagate implements Propagator.
func (f FuncProp) Propagate(st *Store) error { return f(st) }

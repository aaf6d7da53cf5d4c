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

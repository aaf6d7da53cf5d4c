package csp

// Classic constraint problems exercising the solver beyond placement:
// they validate the propagation/search machinery against known answers.

import "testing"

// TestLangfordPairs solves L(2,n): arrange pairs of 1..n so the two
// copies of k are k+1 apart. Known solution counts (up to reversal
// symmetry the raw count doubles): n=3 -> 2, n=4 -> 2, n=7 -> 52.
func TestLangfordPairs(t *testing.T) {
	counts := map[int]int{3: 2, 4: 2, 7: 52}
	for n, want := range counts {
		st := NewStore()
		// pos[k] is the index of the first copy of k+1; second copy sits
		// at pos[k] + (k+1) + 1.
		size := 2 * n
		pos := make([]*Var, n)
		for k := range pos {
			pos[k] = st.NewVarRange("p", 0, size-(k+1)-2)
		}
		// All 2n slots distinct: pairwise constraints between all copies.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				da, db := a+2, b+2 // gap of value k is k+1 where value = k+1 -> a+1+1
				NotEqual(st, pos[a], pos[b])
				NotEqualOffset(st, pos[a], pos[b], db) // first a vs second b
				NotEqualOffset(st, pos[b], pos[a], da) // first b vs second a
				// second a vs second b: pos[a]+da != pos[b]+db
				NotEqualOffset(st, pos[a], pos[b], db-da)
			}
		}
		res, err := Solve(st, pos, Options{}, func(*Store) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if res.Solutions != want || !res.Complete {
			t.Errorf("L(2,%d): %d solutions, want %d", n, res.Solutions, want)
		}
	}
}

// TestMagicSeries solves the magic-series problem: s[i] = number of
// occurrences of i in s. Unique solutions are known for n >= 7:
// (n-4, 2, 1, 0, ..., 0, 1, 0, 0, 0). The occurrence and sum
// constraints are ad-hoc FuncProps.
func TestMagicSeries(t *testing.T) {
	const n = 8
	st := NewStore()
	s := make([]*Var, n)
	for i := range s {
		s[i] = st.NewVarRange("s", 0, n-1)
	}
	// Occurrence constraints: s[i] lies between the number of vars
	// already fixed to i and the number that can still take i.
	for i := 0; i < n; i++ {
		st.Post(FuncProp(func(store *Store) error {
			fixed, possible := 0, 0
			for _, v := range s {
				if v.Domain().Contains(i) {
					possible++
					if v.Assigned() {
						fixed++
					}
				}
			}
			if err := store.SetMin(s[i], fixed); err != nil {
				return err
			}
			return store.SetMax(s[i], possible)
		}), s...)
	}
	// Redundant constraint speeding things up: sum s[i] = n.
	st.Post(FuncProp(func(store *Store) error {
		lo, hi := 0, 0
		for _, v := range s {
			lo += v.Min()
			hi += v.Max()
		}
		for _, v := range s {
			if err := store.SetMin(v, n-(hi-v.Max())); err != nil {
				return err
			}
			if err := store.SetMax(v, n-(lo-v.Min())); err != nil {
				return err
			}
		}
		return nil
	}), s...)

	res, err := Solve(st, s, Options{}, func(store *Store) bool {
		// Verify the solution is a genuine magic series.
		vals := make([]int, n)
		for i, v := range s {
			vals[i] = v.Value()
		}
		for i := 0; i < n; i++ {
			count := 0
			for _, v := range vals {
				if v == i {
					count++
				}
			}
			if count != vals[i] {
				t.Fatalf("bogus magic series %v", vals)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 1 || !res.Complete {
		t.Fatalf("magic series n=%d: %d solutions, want 1", n, res.Solutions)
	}
}

// TestGolombRulerMinimize finds the optimal length of a 5-mark Golomb
// ruler (known optimum: 11).
func TestGolombRulerMinimize(t *testing.T) {
	const marks = 5
	const maxLen = 20
	st := NewStore()
	m := make([]*Var, marks)
	for i := range m {
		m[i] = st.NewVarRange("m", 0, maxLen)
	}
	if err := st.Assign(m[0], 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < marks; i++ {
		LessEqOffset(st, m[i], m[i+1], 1) // strictly increasing
	}
	// All pairwise differences distinct: difference variables + pairwise
	// inequality.
	var diffs []*Var
	for i := 0; i < marks; i++ {
		for j := i + 1; j < marks; j++ {
			d := st.NewVarRange("d", 1, maxLen)
			// d = m[j] - m[i]: enforce with two custom half-constraints.
			i, j := i, j
			st.Post(FuncProp(func(store *Store) error {
				if err := store.SetMin(d, m[j].Min()-m[i].Max()); err != nil {
					return err
				}
				if err := store.SetMax(d, m[j].Max()-m[i].Min()); err != nil {
					return err
				}
				if err := store.SetMin(m[j], m[i].Min()+d.Min()); err != nil {
					return err
				}
				if err := store.SetMax(m[j], m[i].Max()+d.Max()); err != nil {
					return err
				}
				if err := store.SetMin(m[i], m[j].Min()-d.Max()); err != nil {
					return err
				}
				return store.SetMax(m[i], m[j].Max()-d.Min())
			}), m[i], m[j], d)
			diffs = append(diffs, d)
		}
	}
	pairwiseDifferent(st, diffs...)

	res, err := Minimize(st, m, m[marks-1], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Best != 11 || !res.Optimal {
		t.Fatalf("Golomb(5): %+v, want best=11 optimal", res)
	}
}

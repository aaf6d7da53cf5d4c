package csp

import (
	"testing"
	"time"
)

// postQueens builds the n-queens model: column position per row,
// all-different on columns and both diagonals.
func postQueens(st *Store, n int) []*Var {
	q := make([]*Var, n)
	for i := range q {
		q[i] = st.NewVarRange("q", 0, n-1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			NotEqual(st, q[i], q[j])
			NotEqualOffset(st, q[i], q[j], j-i) // q[i] != q[j] + (j-i)
			NotEqualOffset(st, q[i], q[j], i-j) // q[i] != q[j] - (j-i)
		}
	}
	return q
}

func TestSolveQueensCounts(t *testing.T) {
	// Known solution counts for n-queens.
	want := map[int]int{4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
	for n, count := range want {
		st := NewStore()
		q := postQueens(st, n)
		res, err := Solve(st, q, Options{}, func(*Store) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if res.Solutions != count || !res.Complete {
			t.Errorf("%d-queens: %d solutions (complete=%v), want %d",
				n, res.Solutions, res.Complete, count)
		}
	}
}

func TestSolveValidatesSolutions(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 6)
	_, err := Solve(st, q, Options{}, func(s *Store) bool {
		// Verify the callback sees a fully assigned, conflict-free board.
		vals := make([]int, len(q))
		for i, v := range q {
			if !v.Assigned() {
				t.Fatal("unassigned var at solution")
			}
			vals[i] = v.Value()
		}
		for i := range vals {
			for j := i + 1; j < len(vals); j++ {
				if vals[i] == vals[j] || vals[i]-vals[j] == j-i || vals[j]-vals[i] == j-i {
					t.Fatalf("invalid solution %v", vals)
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSolveCallbackStop(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 8)
	res, err := Solve(st, q, Options{}, func(*Store) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 1 || res.Complete {
		t.Fatalf("callback stop: %d solutions complete=%v", res.Solutions, res.Complete)
	}
}

func TestSolveInfeasibleAtRoot(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 5)
	y := st.NewVarRange("y", 0, 5)
	LessEqOffset(st, x, y, 10)
	res, err := Solve(st, []*Var{x, y}, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 0 || !res.Complete {
		t.Fatalf("infeasible: %+v", res)
	}
}

func TestSolveDeadline(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 10)
	res, err := Solve(st, q, Options{Deadline: time.Now().Add(-time.Second)},
		func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("expired deadline still reported complete")
	}
}

func TestSolveRestoresStore(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 5)
	sizeBefore := q[0].Size()
	if _, err := Solve(st, q, Options{}, func(*Store) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if q[0].Size() != sizeBefore {
		t.Fatal("Solve left domains modified")
	}
}

func TestSolveVariableChoosers(t *testing.T) {
	for name, chooser := range map[string]VarChooser{
		"first-unassigned": FirstUnassigned,
		"smallest-domain":  SmallestDomain,
	} {
		st := NewStore()
		q := postQueens(st, 6)
		res, err := Solve(st, q, Options{ChooseVar: chooser}, func(*Store) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if res.Solutions != 4 {
			t.Errorf("%s: %d solutions, want 4", name, res.Solutions)
		}
	}
}

func TestMinimizeSimple(t *testing.T) {
	// Minimise max(x, y) with x + 2 <= y: optimum x=0, y=2, obj=2.
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)
	obj := st.NewVarRange("obj", 0, 9)
	maxOf(st, obj, x, y)
	LessEqOffset(st, x, y, 2)
	var seen []int
	res, err := Minimize(st, []*Var{x, y}, obj, Options{}, func(s *Store, v int) {
		seen = append(seen, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Best != 2 || !res.Optimal {
		t.Fatalf("Minimize: %+v", res)
	}
	// Improvements are strictly decreasing.
	for i := 1; i < len(seen); i++ {
		if seen[i] >= seen[i-1] {
			t.Fatalf("non-improving callback sequence %v", seen)
		}
	}
	if seen[len(seen)-1] != 2 {
		t.Fatalf("last improvement %v != best", seen)
	}
}

func TestMinimizeInfeasible(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 3)
	obj := st.NewVarRange("obj", 0, 3)
	LessEq(st, x, obj)
	LessEqOffset(st, obj, x, 1) // contradiction: x <= obj < x
	res, err := Minimize(st, []*Var{x}, obj, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || !res.Optimal {
		t.Fatalf("infeasible Minimize: %+v", res)
	}
}

func TestMinimizeDeadlineAnytime(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 9)
	res, err := Minimize(st, q, q[0], Options{Deadline: time.Now().Add(50 * time.Millisecond)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With 50ms we must at least find something for 9-queens.
	if !res.Found {
		t.Fatal("no solution within deadline")
	}
}

func TestMinimizeProvesOptimality(t *testing.T) {
	// Minimise the first queen's column on a 6 board: optimum is 1
	// (column 0 is infeasible for 6-queens).
	st := NewStore()
	q := postQueens(st, 6)
	res, err := Minimize(st, q, q[0], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Best != 1 || !res.Optimal {
		t.Fatalf("queens minimize: %+v", res)
	}
}

func TestMinimizeRestoresStore(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	obj := st.NewVarRange("obj", 0, 9)
	maxOf(st, obj, x)
	if _, err := Minimize(st, []*Var{x}, obj, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	// Domains restored except root-level propagation effects.
	if x.Size() == 0 {
		t.Fatal("store corrupted")
	}
	if len(st.marks) != 0 {
		t.Fatal("unbalanced Push/Pop")
	}
}

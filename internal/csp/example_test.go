package csp_test

import (
	"fmt"

	"repro/internal/csp"
)

// ExampleSolve enumerates the solutions of a tiny constraint problem.
func ExampleSolve() {
	st := csp.NewStore()
	x := st.NewVarRange("x", 0, 2)
	y := st.NewVarRange("y", 0, 2)
	csp.LessEqOffset(st, x, y, 1) // x < y

	res, err := csp.Solve(st, []*csp.Var{x, y}, csp.Options{}, func(s *csp.Store) bool {
		fmt.Printf("x=%d y=%d\n", x.Value(), y.Value())
		return true
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("solutions:", res.Solutions, "complete:", res.Complete)
	// Output:
	// x=0 y=1
	// x=0 y=2
	// x=1 y=2
	// solutions: 3 complete: true
}

// ExampleMinimize finds the optimum of a small model by
// branch-and-bound.
func ExampleMinimize() {
	st := csp.NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)
	obj := st.NewVarRange("obj", 0, 9)
	csp.LessEq(st, x, obj)        // obj >= x
	csp.LessEq(st, y, obj)        // obj >= y
	csp.LessEqOffset(st, x, y, 3) // x + 3 <= y

	res, err := csp.Minimize(st, []*csp.Var{x, y}, obj, csp.Options{}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("best=%d optimal=%v\n", res.Best, res.Optimal)
	// Output:
	// best=3 optimal=true
}

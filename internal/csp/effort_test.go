package csp

import (
	"fmt"
	"testing"
)

// effortCase is one instance of TestSearchEffort: a search, and the
// effort its sequential run reports.
type effortCase struct {
	name string
	run  func(workers int) (Effort, error)
	want Effort
}

// effortCases are queens enumeration, first-solution and minimisation
// runs and three random minimisation instances. The pinned branches,
// prunes, pruned values, solutions and maximum depth are the ones the
// solver's former event-stream aggregator counted on the same runs;
// both counts were checked equal on every case, sequential and on two
// workers, before the event stream was removed. The aggregator counted
// no solutions in Minimize; there the pinned solutions are its
// incumbents, one solution leaf each.
func effortCases() []effortCase {
	cases := []effortCase{
		{name: "queens6/solve", run: func(int) (Effort, error) {
			st := NewStore()
			res, err := Solve(st, postQueens(st, 6), Options{}, func(*Store) bool { return true })
			return res.Effort, err
		}, want: Effort{Nodes: 27, Branches: 66, Backtracks: 36, Propagations: 2664, Prunes: 474, PrunedValues: 526, Solutions: 4, MaxDepth: 3}},
		{name: "queens8/first", run: func(int) (Effort, error) {
			st := NewStore()
			res, err := Solve(st, postQueens(st, 8), Options{}, func(*Store) bool { return false })
			return res.Effort, err
		}, want: Effort{Nodes: 18, Branches: 41, Backtracks: 23, Propagations: 2767, Prunes: 332, PrunedValues: 369, Solutions: 1, MaxDepth: 4}},
		{name: "queens7/minimize", run: func(int) (Effort, error) {
			st := NewStore()
			q := postQueens(st, 7)
			res, err := Minimize(st, q, q[0], Options{OrderValues: descendingValues}, nil)
			return res.Effort, err
		}, want: Effort{Nodes: 20, Branches: 66, Backtracks: 40, Propagations: 2229, Prunes: 342, PrunedValues: 399, Solutions: 7, MaxDepth: 3}},
	}
	random := []Effort{
		{Nodes: 10, Branches: 42, Backtracks: 32, Propagations: 424, Prunes: 171, PrunedValues: 711, Solutions: 1, MaxDepth: 4},
		{Nodes: 6, Branches: 29, Backtracks: 23, Propagations: 38, Prunes: 37, PrunedValues: 195, Solutions: 1, MaxDepth: 5},
		{Nodes: 7, Branches: 53, Backtracks: 46, Propagations: 30, Prunes: 58, PrunedValues: 566, Solutions: 1, MaxDepth: 6},
	}
	for i, want := range random {
		model := func() (*Store, []*Var, *Var) { return randomInstance(int64(i+1), 6) }
		cases = append(cases, effortCase{name: fmt.Sprintf("random%d", i+1), run: func(workers int) (Effort, error) {
			st, vars, obj := model()
			res, err := MinimizeParallel(st, vars, obj, Options{}, nil, rebuild(model), workers)
			return res.Effort, err
		}, want: want})
	}
	return cases
}

// TestSearchEffort checks the search's own counters: sequential runs
// report the pinned effort exactly. A parallel run's effort depends on
// how the workers interleave, so on two workers the test checks only
// what holds for any interleaving: it fails no more branches than it
// tries, removes at least one value per prune and, since it searches
// every subtree at least as sequential search does, reaches at least
// the sequential run's depth.
func TestSearchEffort(t *testing.T) {
	for _, c := range effortCases() {
		t.Run(c.name, func(t *testing.T) {
			e, err := c.run(1)
			if err != nil {
				t.Fatal(err)
			}
			if e != c.want {
				t.Errorf("effort %+v, want %+v", e, c.want)
			}
			e, err = c.run(2)
			if err != nil {
				t.Fatal(err)
			}
			if e.Branches == 0 || e.Backtracks > e.Branches || e.PrunedValues < e.Prunes || e.MaxDepth < c.want.MaxDepth {
				t.Errorf("two workers: inconsistent effort %+v", e)
			}
		})
	}
}

package csp

import (
	"slices"
	"testing"
	"time"
)

// descendingValues tries domain values largest-first, so a minimising
// search meets a poor incumbent first.
func descendingValues(v *Var, buf []int) []int {
	vals := AscendingValues(v, buf)
	slices.Reverse(vals)
	return vals
}

func TestSolveCountsWithoutRecorder(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 6)
	res, err := Solve(st, q, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Backtracks == 0 || res.Propagations == 0 {
		t.Fatalf("counters not populated: %+v", res)
	}
	if res.Reason != StopExhausted {
		t.Fatalf("reason = %v, want exhausted", res.Reason)
	}
}

func TestSolveStopReasons(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 8)
	res, err := Solve(st, q, Options{}, func(*Store) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopCut {
		t.Errorf("callback stop reason = %v, want cut", res.Reason)
	}

	st2 := NewStore()
	q2 := postQueens(st2, 10)
	res2, err := Solve(st2, q2, Options{Deadline: time.Now().Add(-time.Second)}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reason != StopTimeout {
		t.Errorf("deadline reason = %v, want timeout", res2.Reason)
	}
}

func TestMinimizeStopReasonDistinguishesCauses(t *testing.T) {
	// Proved optimal.
	st := NewStore()
	q := postQueens(st, 6)
	res, err := Minimize(st, q, q[0], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopExhausted || !res.Optimal {
		t.Errorf("proved run: reason=%v optimal=%v", res.Reason, res.Optimal)
	}

	// Stalled: descending values make the first incumbent poor, so the
	// run improves slowly and a 1-node stall budget trips quickly.
	st2 := NewStore()
	q2 := postQueens(st2, 8)
	res2, err := Minimize(st2, q2, q2[0], Options{StallNodes: 1, OrderValues: descendingValues}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found {
		t.Fatal("stalled run found nothing")
	}
	if res2.Reason != StopStalled || !res2.Stalled || res2.Optimal {
		t.Errorf("stalled run: reason=%v stalled=%v optimal=%v", res2.Reason, res2.Stalled, res2.Optimal)
	}

	// Timeout: a deadline already in the past aborts before any node.
	st3 := NewStore()
	q3 := postQueens(st3, 9)
	res3, err := Minimize(st3, q3, q3[0], Options{Deadline: time.Now().Add(-time.Second)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Reason != StopTimeout || res3.Stalled || res3.Optimal {
		t.Errorf("timeout run: reason=%v stalled=%v optimal=%v", res3.Reason, res3.Stalled, res3.Optimal)
	}
}

func TestMinimizeBestObjectiveTrace(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)
	obj := st.NewVarRange("obj", 0, 9)
	maxOf(st, obj, x, y)
	LessEqOffset(st, x, y, 2)
	res, err := Minimize(st, []*Var{x, y}, obj, Options{OrderValues: descendingValues}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.BestObjectiveTrace) == 0 {
		t.Fatalf("no objective trace: %+v", res)
	}
	trace := res.BestObjectiveTrace
	for i := 1; i < len(trace); i++ {
		if trace[i].Objective >= trace[i-1].Objective {
			t.Fatalf("trace not strictly improving: %+v", trace)
		}
		if trace[i].Nodes < trace[i-1].Nodes || trace[i].Elapsed < trace[i-1].Elapsed {
			t.Fatalf("trace not monotone in nodes/time: %+v", trace)
		}
	}
	last := trace[len(trace)-1]
	if last.Objective != res.Best {
		t.Fatalf("final trace point %d != best %d", last.Objective, res.Best)
	}
}

func TestStorePropagatorStats(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 6)
	if _, err := Solve(st, q, Options{}, func(*Store) bool { return true }); err != nil {
		t.Fatal(err)
	}
	stats := st.PropagatorStats()
	if len(stats) == 0 {
		t.Fatal("no propagator stats")
	}
	var total int64
	for _, s := range stats {
		if s.Name == "" {
			t.Error("unnamed propagator in stats")
		}
		total += s.Runs
	}
	if total != st.stats.propagations {
		t.Fatalf("per-propagator runs %d != total %d", total, st.stats.propagations)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Runs > stats[i-1].Runs {
			t.Fatal("stats not sorted most-run first")
		}
	}
	if stats[0].Name != "csp.not-equal" {
		t.Errorf("dominant propagator = %q, want csp.not-equal", stats[0].Name)
	}
}

func TestStorePropagationTiming(t *testing.T) {
	st := NewStore()
	st.EnableTiming(true)
	q := postQueens(st, 8)
	if _, err := Solve(st, q, Options{}, func(*Store) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if st.PropagationTime() <= 0 {
		t.Fatal("propagation time not accumulated")
	}
}

// namedProp decorates a propagator with an explicit metrics name.
type namedProp struct {
	Propagator
	name string
}

// Name implements Named.
func (p namedProp) Name() string { return p.name }

// WithName gives p an explicit name for metrics and trace attribution,
// overriding the Go type-name fallback.
func WithName(p Propagator, name string) Propagator { return namedProp{p, name} }

func TestWithName(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 5)
	st.Post(WithName(FuncProp(func(s *Store) error { return nil }), "custom"), x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.PropagatorStats() {
		if s.Name == "custom" && s.Runs == 1 {
			return
		}
	}
	t.Fatalf("custom-named propagator missing: %+v", st.PropagatorStats())
}

func TestStopReasonString(t *testing.T) {
	want := map[StopReason]string{
		StopExhausted: "exhausted",
		StopTimeout:   "timeout",
		StopStalled:   "stalled",
		StopCut:       "cut",
		StopReason(9): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}

package csp

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkQueensFirstSolution measures raw search machinery throughput:
// time to the first solution of 12-queens.
func BenchmarkQueensFirstSolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := NewStore()
		q := postQueens(st, 12)
		res, err := Solve(st, q, Options{}, func(*Store) bool { return false })
		if err != nil || res.Solutions != 1 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkQueensCountAll measures full-tree exploration: all 92
// solutions of 8-queens.
func BenchmarkQueensCountAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := NewStore()
		q := postQueens(st, 8)
		res, err := Solve(st, q, Options{}, func(*Store) bool { return true })
		if err != nil || res.Solutions != 92 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkSearch is the observability acceptance benchmark: a full
// 8-queens enumeration. Its allocation count must not move when
// instrumentation is added — the search counts its effort in plain
// fields, which allocate nothing.
func BenchmarkSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := NewStore()
		q := postQueens(st, 8)
		res, err := Solve(st, q, Options{}, func(*Store) bool { return true })
		if err != nil || res.Solutions != 92 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkSearchParallel measures branch-and-bound scaling over the
// worker count on a fixed constrained-minimization instance. The
// workers=1 case searches the caller's store with no rebuild, so it is
// the sequential baseline for the higher counts.
func BenchmarkSearchParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model := func() (*Store, []*Var, *Var) { return randomInstance(7, 12) }
				st, vars, obj := model()
				res, err := MinimizeParallel(st, vars, obj, Options{}, nil, rebuild(model), workers)
				if err != nil || !res.Found || !res.Optimal {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

func BenchmarkDomainClone(b *testing.B) {
	d := NewDomainRange(0, 17279) // a Table-I-scale placement domain
	d.FilterIn(math.MinInt, math.MaxInt, func(v int) bool { return v%3 != 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Clone()
	}
}

func BenchmarkDomainFilter(b *testing.B) {
	base := NewDomainRange(0, 17279)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		d.FilterIn(math.MinInt, math.MaxInt, func(v int) bool { return v&7 != 3 })
	}
}

func BenchmarkDomainForEach(b *testing.B) {
	d := NewDomainRange(0, 17279)
	d.FilterIn(math.MinInt, math.MaxInt, func(v int) bool { return v%5 == 0 })
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		d.ForEach(func(int) bool { n++; return true })
	}
	_ = n
}

func BenchmarkPushPop(b *testing.B) {
	st := NewStore()
	vars := make([]*Var, 30)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, 4000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Push()
		for _, v := range vars {
			if err := st.SetMax(v, 2000); err != nil {
				b.Fatal(err)
			}
		}
		st.Pop()
	}
}

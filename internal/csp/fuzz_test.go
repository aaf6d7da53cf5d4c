package csp

import (
	"slices"
	"sort"
	"testing"
)

// FuzzDomain drives the bitset Domain through a byte-encoded op stream
// (remove, range removal, keep-only, filter over a range, then clone)
// and cross-checks every observable — size, emptiness, bounds,
// membership, ascending and descending scans over ranges, scans stopped
// early, the bounds within a range, the values FilterIn offers —
// against a brute-force map model after every op. Scans visit only the
// words between the cached bounds, so these checks also catch stale
// bounds. The universe straddles word boundaries (negative base, >64
// values) so word-edge masking bugs are reachable.
func FuzzDomain(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 2, 60, 3, 20})
	f.Add([]byte{4, 3, 5, 0, 4, 7, 0, 0, 1, 40})
	f.Add([]byte{2, 0, 1, 90, 5, 5, 3, 63, 3, 64, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lo, hi = -8, 119 // 128-value universe, base not word-aligned
		span := hi - lo + 1
		d := NewDomainRange(lo, hi)
		model := map[int]bool{}
		for v := lo; v <= hi; v++ {
			model[v] = true
		}

		check := func(ctx string) {
			t.Helper()
			if d.Size() != len(model) {
				t.Fatalf("%s: size %d, model %d", ctx, d.Size(), len(model))
			}
			if d.Empty() != (len(model) == 0) {
				t.Fatalf("%s: emptiness mismatch", ctx)
			}
			var want []int
			for v := range model {
				want = append(want, v)
			}
			sort.Ints(want)
			got := d.Values()
			if len(got) != len(want) {
				t.Fatalf("%s: %d values, model %d", ctx, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: values[%d] = %d, model %d", ctx, i, got[i], want[i])
				}
			}
			// Every scan over a range, in either direction and stopped
			// early, yields exactly the model's values in the range.
			for a := lo - 2; a <= hi+2; a += 9 {
				for _, b := range []int{a, a + 5, a + 70, hi + 2} {
					i := sort.SearchInts(want, a)
					j := sort.SearchInts(want, b+1)
					in := want[i:max(i, j)]
					var up, down []int
					d.ForEachIn(a, b, func(v int) bool { up = append(up, v); return true })
					d.ForEachDescIn(a, b, func(v int) bool { down = append(down, v); return true })
					slices.Reverse(down)
					if !slices.Equal(up, in) || !slices.Equal(down, in) {
						t.Fatalf("%s: [%d,%d] ascending %v, descending reversed %v, model %v", ctx, a, b, up, down, in)
					}
					stop := len(in)/2 + 1
					up, down = nil, nil
					d.ForEachIn(a, b, func(v int) bool { up = append(up, v); return len(up) < stop })
					d.ForEachDescIn(a, b, func(v int) bool { down = append(down, v); return len(down) < stop })
					n := min(stop, len(in))
					if len(up) != n || len(down) != n || (n > 0 && (up[n-1] != in[n-1] || down[n-1] != in[len(in)-n])) {
						t.Fatalf("%s: [%d,%d] stopped after %d: ascending %v, descending %v, model %v", ctx, a, b, stop, up, down, in)
					}
					first, last, ok := d.RangeBounds(a, b)
					if ok != (len(in) > 0) || (ok && (first != in[0] || last != in[len(in)-1])) {
						t.Fatalf("%s: RangeBounds(%d,%d) = (%d,%d,%v), model %v", ctx, a, b, first, last, ok, in)
					}
				}
			}
			if len(want) > 0 {
				if d.Min() != want[0] || d.Max() != want[len(want)-1] {
					t.Fatalf("%s: bounds [%d,%d], model [%d,%d]",
						ctx, d.Min(), d.Max(), want[0], want[len(want)-1])
				}
				if v, ok := d.Singleton(); (len(want) == 1) != ok || (ok && v != want[0]) {
					t.Fatalf("%s: singleton (%d,%v), model %v", ctx, v, ok, want)
				}
			}
			for v := lo - 2; v <= hi+2; v++ {
				if d.Contains(v) != model[v] {
					t.Fatalf("%s: Contains(%d) = %v, model %v", ctx, v, d.Contains(v), model[v])
				}
			}
		}

		check("initial")
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] % 5
			arg := lo + int(data[i+1])%span
			switch op {
			case 0:
				d.Remove(arg)
				delete(model, arg)
			case 1:
				d.RemoveBelow(arg)
				for v := range model {
					if v < arg {
						delete(model, v)
					}
				}
			case 2:
				d.RemoveAbove(arg)
				for v := range model {
					if v > arg {
						delete(model, v)
					}
				}
			case 3:
				d.KeepOnly(arg)
				had := model[arg]
				for v := range model {
					delete(model, v)
				}
				if had {
					model[arg] = true
				}
			case 4:
				// FilterIn over [arg-20, arg+40]: keep values congruent
				// to arg mod 3; values outside the range stay.
				want := ((arg % 3) + 3) % 3
				a, b := arg-20, arg+40
				keep := func(v int) bool { return v < a || v > b || ((v%3)+3)%3 == want }
				offered, inRange := 0, 0
				for v := range model {
					if v >= a && v <= b {
						inRange++
					}
				}
				d.FilterIn(a, b, func(v int) bool {
					if !model[v] || v < a || v > b {
						t.Fatalf("FilterIn(%d,%d) offered %d, not in the model's range", a, b, v)
					}
					offered++
					return keep(v)
				})
				if offered != inRange {
					t.Fatalf("FilterIn(%d,%d) offered %d values, model holds %d", a, b, offered, inRange)
				}
				for v := range model {
					if !keep(v) {
						delete(model, v)
					}
				}
			}
			check("after op")
		}

		// Clone must be equal and independent.
		c := d.Clone()
		if !c.Equal(d) {
			t.Fatal("clone differs from source")
		}
		if !d.Empty() {
			c.Remove(d.Min())
			if c.Size() != d.Size()-1 || d.Contains(d.Min()) != true {
				t.Fatal("clone mutation leaked into source")
			}
		}
	})
}

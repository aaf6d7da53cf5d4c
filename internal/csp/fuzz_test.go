package csp

import (
	"sort"
	"testing"
)

// FuzzDomain drives the bitset Domain through a byte-encoded op stream
// (remove, range removal, keep-only, filter, then clone) and cross-checks
// every observable — size, emptiness, bounds, membership, value
// enumeration — against a brute-force map model after every op.
// The universe straddles word boundaries (negative base, >64 values)
// so word-edge masking bugs are reachable.
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
				// Filter: keep values congruent to arg mod 3.
				want := ((arg % 3) + 3) % 3
				keep := func(v int) bool { return ((v%3)+3)%3 == want }
				d.Filter(keep)
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

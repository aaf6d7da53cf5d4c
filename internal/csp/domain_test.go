package csp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Remove deletes v, reporting whether the domain changed.
func (d *Domain) Remove(v int) bool {
	i := v - d.base
	if i < 0 || i >= len(d.words)*64 {
		return false
	}
	w, b := i>>6, uint(i&63)
	if d.words[w]&(1<<b) == 0 {
		return false
	}
	d.words[w] &^= 1 << b
	d.size--
	if d.size > 0 && (v == d.min || v == d.max) {
		d.recomputeBounds()
	}
	return true
}

// Equal reports whether d and o contain the same values.
func (d *Domain) Equal(o *Domain) bool {
	if d.size != o.size {
		return false
	}
	eq := true
	d.ForEach(func(v int) bool {
		if !o.Contains(v) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

func TestDomainRange(t *testing.T) {
	d := NewDomainRange(3, 9)
	if d.Size() != 7 || d.Min() != 3 || d.Max() != 9 {
		t.Fatalf("range domain wrong: %v", d)
	}
	for v := 3; v <= 9; v++ {
		if !d.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if d.Contains(2) || d.Contains(10) {
		t.Fatal("contains out-of-range values")
	}
}

func TestDomainRangePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for hi < lo")
		}
	}()
	NewDomainRange(5, 4)
}

func TestDomainValues(t *testing.T) {
	d := NewDomainValues(7, 3, 7, 100)
	if d.Size() != 3 || d.Min() != 3 || d.Max() != 100 {
		t.Fatalf("values domain wrong: size=%d min=%d max=%d", d.Size(), d.Min(), d.Max())
	}
	want := []int{3, 7, 100}
	got := d.Values()
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Values = %v, want %v", got, want)
	}
}

func TestDomainRemove(t *testing.T) {
	d := NewDomainRange(0, 5)
	if !d.Remove(0) || d.Min() != 1 {
		t.Fatal("Remove(min) failed")
	}
	if !d.Remove(5) || d.Max() != 4 {
		t.Fatal("Remove(max) failed")
	}
	if d.Remove(5) {
		t.Fatal("double Remove reported change")
	}
	if d.Remove(1000) || d.Remove(-7) {
		t.Fatal("out-of-universe Remove reported change")
	}
	if d.Size() != 4 {
		t.Fatalf("Size = %d, want 4", d.Size())
	}
}

func TestDomainRemoveBelowAbove(t *testing.T) {
	d := NewDomainRange(0, 200) // multi-word
	if !d.RemoveBelow(70) || d.Min() != 70 {
		t.Fatalf("RemoveBelow: min=%d", d.Min())
	}
	if !d.RemoveAbove(130) || d.Max() != 130 {
		t.Fatalf("RemoveAbove: max=%d", d.Max())
	}
	if d.Size() != 61 {
		t.Fatalf("Size = %d, want 61", d.Size())
	}
	if d.RemoveBelow(70) || d.RemoveAbove(130) {
		t.Fatal("idempotent bound ops reported change")
	}
	// Kill everything via bounds.
	d2 := NewDomainRange(10, 20)
	if !d2.RemoveAbove(5) || !d2.Empty() {
		t.Fatal("RemoveAbove below universe should empty domain")
	}
	d3 := NewDomainRange(10, 20)
	if !d3.RemoveBelow(100) || !d3.Empty() {
		t.Fatal("RemoveBelow above universe should empty domain")
	}
}

func TestDomainKeepOnly(t *testing.T) {
	d := NewDomainRange(0, 10)
	if !d.KeepOnly(4) {
		t.Fatal("KeepOnly reported no change")
	}
	if v, ok := d.Singleton(); !ok || v != 4 {
		t.Fatalf("Singleton = %d,%v", v, ok)
	}
	if d.KeepOnly(4) {
		t.Fatal("KeepOnly on singleton reported change")
	}
	if !d.KeepOnly(7) || !d.Empty() {
		t.Fatal("KeepOnly with absent value should empty")
	}
}

func TestDomainFilter(t *testing.T) {
	d := NewDomainRange(0, 20)
	if !d.FilterIn(math.MinInt, math.MaxInt, func(v int) bool { return v%3 == 0 }) {
		t.Fatal("Filter reported no change")
	}
	if d.Size() != 7 || d.Min() != 0 || d.Max() != 18 {
		t.Fatalf("filtered: size=%d min=%d max=%d", d.Size(), d.Min(), d.Max())
	}
	if d.FilterIn(math.MinInt, math.MaxInt, func(v int) bool { return true }) {
		t.Fatal("identity Filter reported change")
	}
}

func TestDomainForEachEarlyStop(t *testing.T) {
	d := NewDomainRange(0, 100)
	n := 0
	d.ForEach(func(v int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("ForEach visited %d values after early stop", n)
	}
}

func TestDomainCloneEqual(t *testing.T) {
	d := NewDomainValues(1, 5, 9)
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Remove(5)
	if d.Equal(c) || !d.Contains(5) {
		t.Fatal("clone aliases original")
	}
	e := NewDomainValues(1, 5, 10)
	if d.Equal(e) {
		t.Fatal("different domains reported equal")
	}
}

func TestDomainString(t *testing.T) {
	if got := NewDomainValues(1, 3).String(); got != "{1,3}" {
		t.Fatalf("String = %q", got)
	}
	big := NewDomainRange(0, 99)
	if got := big.String(); got != "{0..99|100}" {
		t.Fatalf("String = %q", got)
	}
	empty := NewDomainRange(0, 0)
	empty.Remove(0)
	if got := empty.String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestDomainEmptyPanics(t *testing.T) {
	d := NewDomainRange(0, 0)
	d.Remove(0)
	for name, f := range map[string]func(){
		"Min": func() { d.Min() },
		"Max": func() { d.Max() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty domain did not panic", name)
				}
			}()
			f()
		}()
	}
}

// referenceSet mirrors domain operations on a map for property testing.
func TestDomainAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDomainRange(0, 150)
		ref := map[int]bool{}
		for v := 0; v <= 150; v++ {
			ref[v] = true
		}
		refDel := func(pred func(int) bool) {
			for v := range ref {
				if pred(v) {
					delete(ref, v)
				}
			}
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0:
				v := rng.Intn(160) - 5
				d.Remove(v)
				delete(ref, v)
			case 1:
				v := rng.Intn(150)
				d.RemoveBelow(v)
				refDel(func(x int) bool { return x < v })
			case 2:
				v := rng.Intn(150)
				d.RemoveAbove(v)
				refDel(func(x int) bool { return x > v })
			case 3:
				mod := 2 + rng.Intn(5)
				d.FilterIn(math.MinInt, math.MaxInt, func(x int) bool { return x%mod != 1 })
				refDel(func(x int) bool { return x%mod == 1 })
			}
			if d.Size() != len(ref) {
				return false
			}
			if len(ref) > 0 {
				keys := make([]int, 0, len(ref))
				for v := range ref {
					keys = append(keys, v)
				}
				sort.Ints(keys)
				if d.Min() != keys[0] || d.Max() != keys[len(keys)-1] {
					return false
				}
				for _, v := range keys {
					if !d.Contains(v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainAnyInRange(t *testing.T) {
	d := NewDomainValues(3, 70, 200)
	cases := []struct {
		lo, hi int
		want   bool
	}{
		{0, 2, false},
		{0, 3, true},
		{3, 3, true},
		{4, 69, false},
		{4, 70, true},
		{71, 199, false},
		{71, 300, true},
		{201, 500, false},
		{-100, -1, false},
		{5, 4, false}, // empty range
		{0, 1000, true},
	}
	for _, c := range cases {
		if got := d.AnyInRange(c.lo, c.hi); got != c.want {
			t.Errorf("AnyInRange(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	empty := NewDomainRange(0, 0)
	empty.Remove(0)
	if empty.AnyInRange(0, 100) {
		t.Error("empty domain AnyInRange true")
	}
}

// Property: AnyInRange and RangeBounds agree with a scan.
func TestDomainAnyInRangeAgainstScan(t *testing.T) {
	f := func(seed int64, lo8, hi8 int8) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int, 0, 12)
		for i := 0; i < 12; i++ {
			vals = append(vals, rng.Intn(200))
		}
		d := NewDomainValues(vals...)
		lo, hi := int(lo8)+60, int(hi8)+60
		want := false
		first, last := hi+1, lo-1
		for _, v := range vals {
			if v >= lo && v <= hi {
				want = true
				first, last = min(first, v), max(last, v)
			}
		}
		f, l, ok := d.RangeBounds(lo, hi)
		return d.AnyInRange(lo, hi) == want && ok == want && (!ok || f == first && l == last)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

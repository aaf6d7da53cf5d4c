package geost

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

// The pairwise model below is the kernel's earlier non-overlap
// formulation, kept only as a reference for the differential tests: one
// forward-checking propagator and one compulsory-part propagator per
// object *pair*, each woken by either side's domain. The per-object
// propagators must reach exactly the fixpoint this model reaches.

// translate returns ps shifted by d.
func translate(ps []grid.Point, d grid.Point) []grid.Point {
	out := make([]grid.Point, len(ps))
	for i, p := range ps {
		out[i] = p.Add(d)
	}
	return out
}

// normalise returns ps shifted so their bounding box starts at (0, 0),
// and the box.
func normalise(ps []grid.Point) ([]grid.Point, grid.Rect) {
	lo, hi := ps[0], ps[0]
	for _, p := range ps {
		lo = grid.Pt(min(lo.X, p.X), min(lo.Y, p.Y))
		hi = grid.Pt(max(hi.X, p.X), max(hi.Y, p.Y))
	}
	return translate(ps, grid.Pt(-lo.X, -lo.Y)), grid.Rect{MaxX: hi.X - lo.X + 1, MaxY: hi.Y - lo.Y + 1}
}

// nonOverlapPair forward-checks two objects against each other.
type nonOverlapPair struct {
	k    *Kernel
	a, b *Object
}

func (p *nonOverlapPair) Propagate(st *csp.Store) error {
	if err := p.dir(st, p.a, p.b); err != nil {
		return err
	}
	return p.dir(st, p.b, p.a)
}

func (p *nonOverlapPair) dir(st *csp.Store, fixed, other *Object) error {
	if !fixed.Assigned() {
		return nil
	}
	sid, x, y := fixed.Placement()
	g := &fixed.Shapes[sid]
	at := grid.Pt(x, y)
	box := grid.RectXYWH(x, y, g.W, g.H)
	scratch := p.k.scratch
	pts := translate(g.Points, at)
	scratch.SetPoints(pts, true)
	defer scratch.SetPoints(pts, false)
	return st.FilterDomain(other.Place, func(val int) bool {
		osid, ox, oy := other.Decode(val)
		og := &other.Shapes[osid]
		if !box.Overlaps(grid.RectXYWH(ox, oy, og.W, og.H)) {
			return true
		}
		return !scratch.AnyAt(og.Points, grid.Pt(ox, oy))
	})
}

// compulsoryPair prunes each of two objects against the other's
// compulsory region, recomputed from scratch with fresh bitmaps.
type compulsoryPair struct {
	a, b *Object
}

func (p *compulsoryPair) Propagate(st *csp.Store) error {
	if err := p.dir(st, p.a, p.b); err != nil {
		return err
	}
	return p.dir(st, p.b, p.a)
}

func (p *compulsoryPair) dir(st *csp.Store, narrow, other *Object) error {
	if narrow.Assigned() {
		return nil
	}
	comp := refCompulsoryRegion(narrow)
	if comp == nil {
		return nil
	}
	box := comp.Extent()
	return st.FilterDomain(other.Place, func(val int) bool {
		osid, ox, oy := other.Decode(val)
		og := &other.Shapes[osid]
		if !box.Overlaps(grid.RectXYWH(ox, oy, og.W, og.H)) {
			return true
		}
		return !comp.AnyAt(og.Points, grid.Pt(ox, oy))
	})
}

// refCompulsoryRegion is the cell-wise intersection of o's candidate
// footprints, built by painting each one into a fresh bitmap.
func refCompulsoryRegion(o *Object) *grid.Bitmap {
	n := o.Place.Size()
	if n == 0 || n > compulsoryThreshold {
		return nil
	}
	var acc *grid.Bitmap
	o.Place.Domain().ForEach(func(val int) bool {
		sid, x, y := o.Decode(val)
		cur := grid.NewBitmap(o.k.w, o.k.h)
		cur.SetPoints(translate(o.Shapes[sid].Points, grid.Pt(x, y)), true)
		if acc == nil {
			acc = cur
		} else {
			inv := grid.NewBitmap(o.k.w, o.k.h)
			inv.SetRect(inv.Bounds(), true)
			inv.AndNot(cur)
			acc.AndNot(inv)
		}
		return acc.Count() > 0
	})
	if acc == nil || acc.Count() == 0 {
		return nil
	}
	return acc
}

// postPairwise posts the reference model over every object pair.
func postPairwise(k *Kernel, strong bool) {
	for i, a := range k.objects {
		for _, b := range k.objects[i+1:] {
			k.st.Post(&nonOverlapPair{k: k, a: a, b: b}, a.Place, b.Place)
			if strong {
				k.st.Post(&compulsoryPair{a: a, b: b}, a.Place, b.Place)
			}
		}
	}
}

// randomShape returns a random polyomino-like footprint of at most 3×3
// tiles, normalised to a tight bounding box at the origin, with a random
// valid-anchor bitmap over a w×h space.
func randomShape(r *rand.Rand, w, h int) ShapeGeom {
	bw, bh := 1+r.Intn(3), 1+r.Intn(3)
	var pts []grid.Point
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			if r.Intn(5) < 3 {
				pts = append(pts, grid.Pt(x, y))
			}
		}
	}
	if len(pts) == 0 {
		pts = append(pts, grid.Pt(0, 0))
	}
	pts, box := normalise(pts)
	valid := grid.NewBitmap(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			valid.Set(x, y, r.Intn(10) < 7)
		}
	}
	var hist fabric.Histogram
	hist[fabric.CLB] = len(pts)
	return ShapeGeom{Points: pts, W: box.W(), H: box.H(), Valid: valid, Hist: hist}
}

// fixpointModels builds the same random instance twice: once with the
// per-object propagators, once with the pairwise reference. It returns
// nil stores when the instance has fewer than two placeable objects.
func fixpointModels(r *rand.Rand) (strong bool, got, ref *csp.Store) {
	w, h := 3+r.Intn(8), 3+r.Intn(8)
	n := 2 + r.Intn(5)
	strong = r.Intn(2) == 0
	got, ref = csp.NewStore(), csp.NewStore()
	kg, kr := New(got, w, h), New(ref, w, h)
	for i := 0; i < n; i++ {
		shapes := make([]ShapeGeom, 1+r.Intn(3))
		for s := range shapes {
			shapes[s] = randomShape(r, w, h)
		}
		name := string(rune('a' + i))
		if _, err := kg.AddObject(name, shapes); err != nil {
			continue // no feasible placement: leave it out of both models
		}
		if _, err := kr.AddObject(name, shapes); err != nil {
			panic(err)
		}
	}
	if len(kg.objects) < 2 {
		return strong, nil, nil
	}
	kg.PostNonOverlap()
	if strong {
		kg.PostCompulsoryNonOverlap()
	}
	postPairwise(kr, strong)
	return strong, got, ref
}

// checkFixpoint drives both models of the instance seeded by seed
// through the same Push/Assign/FilterDomain/Pop sequence, steered by
// ops, and fails unless every Propagate agrees on failure and, on
// success, leaves every domain equal. After a failure both stores are
// popped and must again hold equal domains.
func checkFixpoint(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	strong, got, ref := fixpointModels(r)
	if got == nil {
		return
	}
	depth := 0
	compare := func(step int, what string) {
		t.Helper()
		for i, v := range got.Vars() {
			if rv := ref.Vars()[i]; !slices.Equal(v.Domain().AppendValues(nil), rv.Domain().AppendValues(nil)) {
				t.Fatalf("seed %d strong=%v step %d (%s): %v, pairwise reference %v",
					seed, strong, step, what, v, rv)
			}
		}
	}
	propagate := func(step int, what string) {
		t.Helper()
		errG, errR := got.Propagate(), ref.Propagate()
		if (errG == nil) != (errR == nil) {
			t.Fatalf("seed %d strong=%v step %d (%s): propagate %v, pairwise reference %v",
				seed, strong, step, what, errG, errR)
		}
		if errG == nil {
			compare(step, what)
			return
		}
		got.Pop()
		ref.Pop()
		depth--
		compare(step, what+", popped after failure")
	}
	errG, errR := got.Propagate(), ref.Propagate()
	if (errG == nil) != (errR == nil) {
		t.Fatalf("seed %d strong=%v root: propagate %v, pairwise reference %v", seed, strong, errG, errR)
	}
	if errG != nil {
		return // infeasible at the root in both models
	}
	compare(-1, "root")
	for step, op := range ops {
		vars := got.Vars()
		// Every variable is an object's placement variable.
		vi := r.Intn(len(vars))
		v, rv := vars[vi], ref.Vars()[vi]
		switch op % 3 {
		case 0:
			if depth > 0 {
				got.Pop()
				ref.Pop()
				depth--
				compare(step, "pop")
			}
		case 1:
			if v.Assigned() {
				continue
			}
			vals := v.Domain().AppendValues(nil)
			val := vals[r.Intn(len(vals))]
			got.Push()
			ref.Push()
			depth++
			if got.Assign(v, val) != nil || ref.Assign(rv, val) != nil {
				t.Fatalf("seed %d: assign of an in-domain value failed", seed)
			}
			propagate(step, "assign")
		case 2:
			// Drop a random part of the domain so compulsory regions form
			// before assignment.
			mask := r.Int63()
			keep := func(val int) bool { return mask>>(val%63)&1 == 1 }
			got.Push()
			ref.Push()
			depth++
			errG, errR := got.FilterDomain(v, keep), ref.FilterDomain(rv, keep)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("seed %d: filter disagreed before propagation", seed)
			}
			propagate(step, "filter")
		}
	}
}

// TestNonOverlapFixpointMatchesPairwise is the differential test of the
// per-object non-overlap and compulsory propagators against the
// pairwise reference model on seeded random kernels.
func TestNonOverlapFixpointMatchesPairwise(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(-seed))
		ops := make([]byte, 30)
		r.Read(ops)
		checkFixpoint(t, seed, ops)
	}
}

// FuzzNonOverlapFixpoint mutates the instance seed and the operation
// sequence of the differential test.
func FuzzNonOverlapFixpoint(f *testing.F) {
	f.Add(int64(1), []byte{1, 1, 2, 0, 1, 1})
	f.Add(int64(7), []byte{2, 2, 2, 1, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		checkFixpoint(t, seed, ops)
	})
}

// TestPostOnePropagatorPerObject checks PostNonOverlap and
// PostCompulsoryNonOverlap each post one propagator per object: the
// root propagation runs every posted propagator exactly once.
func TestPostOnePropagatorPerObject(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 8, 8)
	for i := 0; i < 5; i++ {
		if _, err := k.AddObject(string(rune('a'+i)), []ShapeGeom{rectGeom(2, 2, 8, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	runs := map[string]int64{}
	for _, s := range st.PropagatorStats() {
		runs[s.Name] = s.Runs
	}
	for _, name := range []string{"geost.non-overlap", "geost.compulsory"} {
		if runs[name] != 5 {
			t.Errorf("%s ran %d times at the root, want one per object (5)", name, runs[name])
		}
	}
}

// TestNonOverlapPropagateAllocs checks a non-overlap or compulsory run
// that prunes nothing allocates nothing.
func TestNonOverlapPropagateAllocs(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 70, 6)
	a, _ := k.AddObject("a", []ShapeGeom{rectGeom(3, 3, 70, 6)})
	b, _ := k.AddObject("b", []ShapeGeom{rectGeom(2, 2, 70, 6), rectGeom(4, 1, 70, 6)})
	c, _ := k.AddObject("c", []ShapeGeom{rectGeom(1, 2, 70, 6)})
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	if err := st.Assign(a.Place, k.encode(0, 62, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.FilterDomain(b.Place, func(v int) bool {
		sid, x, y := b.Decode(v)
		return sid == 0 && y == 0 && x >= 30 && x <= 31
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if compulsoryRegion(b) == nil {
		t.Fatal("test premise broken: b has no compulsory region")
	}
	for name, p := range map[string]csp.Propagator{
		"non-overlap": &nonOverlap{o: a},
		"compulsory":  &compulsory{o: b},
	} {
		before := c.CandidateCount()
		allocs := testing.AllocsPerRun(50, func() {
			if err := p.Propagate(st); err != nil {
				t.Fatal(err)
			}
		})
		if c.CandidateCount() != before {
			t.Fatalf("%s: test premise broken: a run at the fixpoint pruned", name)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per run at the fixpoint, want 0", name, allocs)
		}
	}
}

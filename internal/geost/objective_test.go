package geost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
)

// The model below is the kernel's earlier height objective, kept only
// as a reference for the differential tests: a Top variable per object,
// channelled to its placement by a top-link propagator, a max-of
// propagator for height = max(Top), and the capacity bound beside them.
// heightBound alone must reach exactly the fixpoint this model reaches,
// projected onto the placement and height variables.

// refTopLink channels between an object's placement variable and its
// Top variable: Top = y + height(shape).
type refTopLink struct {
	o   *Object
	top *csp.Var
}

func (p *refTopLink) Propagate(st *csp.Store) error {
	o := p.o
	lo, hi := o.k.h+1, -1
	for sid := range o.Shapes {
		first, last, ok := o.Place.Domain().RangeBounds(o.k.encode(sid, 0, 0), o.k.encode(sid+1, 0, 0)-1)
		if ok {
			lo, hi = min(lo, o.TopOf(first)), max(hi, o.TopOf(last))
		}
	}
	if err := st.SetMin(p.top, lo); err != nil {
		return err
	}
	if err := st.SetMax(p.top, hi); err != nil {
		return err
	}
	tLo, tHi := p.top.Min(), p.top.Max()
	if tLo > lo || tHi < hi {
		return st.FilterDomain(o.Place, func(val int) bool {
			t := o.TopOf(val)
			return t >= tLo && t <= tHi
		})
	}
	return nil
}

// refMaxOf enforces m = max(vars) (bounds consistency).
type refMaxOf struct {
	vars []*csp.Var
	m    *csp.Var
}

func (p *refMaxOf) Propagate(st *csp.Store) error {
	lo, hi := p.vars[0].Min(), p.vars[0].Max()
	for _, v := range p.vars[1:] {
		lo, hi = max(lo, v.Min()), max(hi, v.Max())
	}
	if err := st.SetMin(p.m, lo); err != nil {
		return err
	}
	if err := st.SetMax(p.m, hi); err != nil {
		return err
	}
	for _, v := range p.vars {
		if err := st.SetMax(v, p.m.Max()); err != nil {
			return err
		}
	}
	var reach *csp.Var
	n := 0
	for _, v := range p.vars {
		if v.Max() >= p.m.Min() {
			reach, n = v, n+1
		}
	}
	if n == 1 {
		return st.SetMin(reach, p.m.Min())
	}
	return nil
}

// refCapacity raises height to the fewest rows whose capacity covers
// the objects' total minimum demand over their live shapes.
type refCapacity struct {
	k         *Kernel
	height    *csp.Var
	capPrefix []fabric.Histogram
}

func (p *refCapacity) Propagate(st *csp.Store) error {
	var demand fabric.Histogram
	for _, o := range p.k.objects {
		var d fabric.Histogram
		first := true
		for sid := range o.Shapes {
			if !o.ShapePresent(sid) {
				continue
			}
			for r, n := range o.Shapes[sid].Hist {
				if first || n < d[r] {
					d[r] = n
				}
			}
			first = false
		}
		for r := range demand {
			demand[r] += d[r]
		}
	}
	h := p.height.Min()
	for h <= p.k.h && !sufficient(p.capPrefix[h], demand) {
		h++
	}
	return st.SetMin(p.height, h)
}

// refAddObject adds an object as AddObject did with the reference
// model: its Top variable spans the tops of its initial placements and
// a top link is posted right away. It returns the Top variable.
func refAddObject(k *Kernel, name string, shapes []ShapeGeom) (*csp.Var, error) {
	o, err := k.AddObject(name, shapes)
	if err != nil {
		return nil, err
	}
	lo, hi := k.h+1, 0
	o.Place.Domain().ForEach(func(val int) bool {
		lo, hi = min(lo, o.TopOf(val)), max(hi, o.TopOf(val))
		return true
	})
	top := k.st.NewVarRange("top("+name+")", lo, hi)
	k.st.Post(&refTopLink{o: o, top: top}, o.Place, top)
	return top, nil
}

// refPostHeightObjective posts the reference objective over tops, the
// objects' Top variables, in the order PostHeightObjective used to.
func refPostHeightObjective(k *Kernel, tops []*csp.Var, capPrefix []fabric.Histogram) *csp.Var {
	height := k.st.NewVarRange("height", 0, k.h)
	k.st.Post(&refMaxOf{vars: tops, m: height}, append([]*csp.Var{height}, tops...)...)
	k.st.Post(&refCapacity{k: k, height: height, capPrefix: capPrefix}, append([]*csp.Var{height}, k.PlaceVars()...)...)
	return height
}

// objectiveModel is one build of a random height-objective instance.
type objectiveModel struct {
	st     *csp.Store
	k      *Kernel
	height *csp.Var
}

// objectiveModels builds the same random instance twice: once with
// heightBound, once with the reference model. Shapes mix CLB and BRAM
// tiles and the space's rows hold random capacities of each, so the
// capacity bound binds on some instances. It returns ok = false when no
// object is placeable.
func objectiveModels(r *rand.Rand) (strong bool, got, ref objectiveModel, ok bool) {
	w, h := 3+r.Intn(8), 3+r.Intn(8)
	n := 1 + r.Intn(5)
	strong = r.Intn(2) == 0
	got.st, ref.st = csp.NewStore(), csp.NewStore()
	got.k, ref.k = New(got.st, w, h), New(ref.st, w, h)
	var tops []*csp.Var
	for i := 0; i < n; i++ {
		shapes := make([]ShapeGeom, 1+r.Intn(3))
		for s := range shapes {
			shapes[s] = randomShape(r, w, h)
			brams := r.Intn(shapes[s].Hist[fabric.CLB] + 1)
			shapes[s].Hist[fabric.CLB] -= brams
			shapes[s].Hist[fabric.BRAM] = brams
		}
		name := string(rune('a' + i))
		if _, err := got.k.AddObject(name, shapes); err != nil {
			continue // no feasible placement: leave it out of both models
		}
		top, err := refAddObject(ref.k, name, shapes)
		if err != nil {
			panic(err)
		}
		tops = append(tops, top)
	}
	if len(tops) == 0 {
		return strong, got, ref, false
	}
	capPrefix := make([]fabric.Histogram, h+1)
	for y := 1; y <= h; y++ {
		brams := r.Intn(w + 1)
		capPrefix[y] = capPrefix[y-1]
		capPrefix[y][fabric.CLB] += w - brams
		capPrefix[y][fabric.BRAM] += brams
	}
	for _, m := range []objectiveModel{got, ref} {
		m.k.PostNonOverlap()
		if strong {
			m.k.PostCompulsoryNonOverlap()
		}
	}
	got.height = got.k.PostHeightObjective(capPrefix)
	ref.height = refPostHeightObjective(ref.k, tops, capPrefix)
	return strong, got, ref, true
}

// diff describes the first placement or height domain on which two
// builds of an instance differ, or returns "" when all are equal.
func (m objectiveModel) diff(ref objectiveModel) string {
	for i, o := range m.k.objects {
		ro := ref.k.objects[i]
		if !slices.Equal(o.Place.Domain().AppendValues(nil), ro.Place.Domain().AppendValues(nil)) {
			return fmt.Sprintf("%v, reference %v", o.Place, ro.Place)
		}
	}
	if m.height.Min() != ref.height.Min() || m.height.Max() != ref.height.Max() || m.height.Size() != ref.height.Size() {
		return fmt.Sprintf("%v, reference %v", m.height, ref.height)
	}
	return ""
}

// checkObjective drives both models of the instance seeded by seed
// through the same Push/Assign/FilterDomain/SetMax(height)/Pop
// sequence, steered by ops, and fails unless every Propagate agrees on
// failure and, on success, leaves every placement domain and the height
// domain equal. After a failure both stores are popped and must again
// agree.
func checkObjective(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	strong, got, ref, ok := objectiveModels(r)
	if !ok {
		return
	}
	depth := 0
	compare := func(step int, what string) {
		t.Helper()
		if d := got.diff(ref); d != "" {
			t.Fatalf("seed %d strong=%v step %d (%s): %s", seed, strong, step, what, d)
		}
	}
	propagate := func(step int, what string) {
		t.Helper()
		errG, errR := got.st.Propagate(), ref.st.Propagate()
		if (errG == nil) != (errR == nil) {
			t.Fatalf("seed %d strong=%v step %d (%s): propagate %v, reference %v", seed, strong, step, what, errG, errR)
		}
		if errG == nil {
			compare(step, what)
			return
		}
		got.st.Pop()
		ref.st.Pop()
		depth--
		compare(step, what+", popped after failure")
	}
	push := func() {
		got.st.Push()
		ref.st.Push()
		depth++
	}
	errG, errR := got.st.Propagate(), ref.st.Propagate()
	if (errG == nil) != (errR == nil) {
		t.Fatalf("seed %d strong=%v root: propagate %v, reference %v", seed, strong, errG, errR)
	}
	if errG != nil {
		return // infeasible at the root in both models
	}
	compare(-1, "root")
	for step, op := range ops {
		i := r.Intn(len(got.k.objects))
		v, rv := got.k.objects[i].Place, ref.k.objects[i].Place
		switch op % 4 {
		case 0:
			if depth > 0 {
				got.st.Pop()
				ref.st.Pop()
				depth--
				compare(step, "pop")
			}
		case 1:
			if v.Assigned() {
				continue
			}
			vals := v.Domain().AppendValues(nil)
			val := vals[r.Intn(len(vals))]
			push()
			if got.st.Assign(v, val) != nil || ref.st.Assign(rv, val) != nil {
				t.Fatalf("seed %d: assign of an in-domain value failed", seed)
			}
			propagate(step, "assign")
		case 2:
			// Drop a random part of the domain so tops and shapes go
			// before assignment.
			mask := r.Int63()
			keep := func(val int) bool { return mask>>(val%63)&1 == 1 }
			push()
			errG, errR := got.st.FilterDomain(v, keep), ref.st.FilterDomain(rv, keep)
			if (errG == nil) != (errR == nil) {
				t.Fatalf("seed %d: filter disagreed before propagation", seed)
			}
			propagate(step, "filter")
		case 3:
			// A branch-and-bound cap: height at most a value between
			// its bounds.
			hc := got.height.Min() + r.Intn(got.height.Max()-got.height.Min()+1)
			push()
			if got.st.SetMax(got.height, hc) != nil || ref.st.SetMax(ref.height, hc) != nil {
				t.Fatalf("seed %d: cap within the height bounds failed", seed)
			}
			propagate(step, fmt.Sprintf("height <= %d", hc))
		}
	}
}

// TestHeightObjectiveMatchesReference is the differential test of
// heightBound against the reference model on seeded random kernels.
func TestHeightObjectiveMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(-seed))
		ops := make([]byte, 30)
		r.Read(ops)
		checkObjective(t, seed, ops)
	}
}

// FuzzHeightObjective mutates the instance seed and the operation
// sequence of the differential test.
func FuzzHeightObjective(f *testing.F) {
	f.Add(int64(1), []byte{3, 1, 2, 0, 3, 1})
	f.Add(int64(7), []byte{2, 2, 3, 1, 1, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		checkObjective(t, seed, ops)
	})
}

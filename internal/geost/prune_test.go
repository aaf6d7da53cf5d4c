package geost

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

// refPruneOthers is the single-pass pruneOthers the kernel had before it
// refuted first and tested footprints a row word at a time, kept as the
// reference of the differential test below: it filters every other
// object in object order, testing each candidate tile by tile, and fails
// when a filter empties a domain.
func refPruneOthers(st *csp.Store, k *Kernel, self *Object, occ *grid.Bitmap, box grid.Rect) error {
	for _, other := range k.objects {
		if other == self {
			continue
		}
		if err := st.FilterDomain(other.Place, func(val int) bool {
			osid, ox, oy := other.Decode(val)
			og := &other.Shapes[osid]
			if !box.Overlaps(grid.RectXYWH(ox, oy, og.W, og.H)) {
				return true
			}
			return !occ.AnyAt(og.Points, grid.Pt(ox, oy))
		}); err != nil {
			return err
		}
	}
	return nil
}

// pruneShape returns a random footprint with a tight bounding box at
// the origin and a random valid-anchor bitmap over a w×h space. Most
// shapes are small; some are thin and wider than 64 columns, so their
// rows span two mask words and their windows several domain words.
func pruneShape(r *rand.Rand, w, h int) ShapeGeom {
	bw, bh := 1+r.Intn(5), 1+r.Intn(4)
	if w > 66 && r.Intn(6) == 0 {
		bw, bh = 62+r.Intn(w-62), 1+r.Intn(2)
	}
	var pts []grid.Point
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			if r.Intn(4) < 3 {
				pts = append(pts, grid.Pt(x, y))
			}
		}
	}
	if len(pts) == 0 {
		pts = append(pts, grid.Pt(0, 0))
	}
	pts, box := normalise(pts)
	// Some shapes have no valid anchor before a random cut in row-major
	// order, so the domain starts inside a word and windows near the
	// bottom-left begin below its first word.
	cut := 0
	if r.Intn(3) == 0 {
		cut = r.Intn(w * h)
	}
	valid := grid.NewBitmap(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			valid.Set(x, y, y*w+x >= cut && r.Intn(10) < 6)
		}
	}
	var hist fabric.Histogram
	hist[fabric.CLB] = len(pts)
	return ShapeGeom{Points: pts, W: box.W(), H: box.H(), Valid: valid, Hist: hist}
}

// pruneKernels builds the same random kernel twice, on two stores, and
// puts both in the same random partial state: some objects narrowed to
// part of their domain and some assigned, with no propagation, so
// assigned objects may collide.
func pruneKernels(r *rand.Rand) (got, ref *Kernel) {
	widths := []int{4 + r.Intn(9), 60 + r.Intn(20), 130}
	w, h := widths[r.Intn(len(widths))], 3+r.Intn(8)
	got, ref = New(csp.NewStore(), w, h), New(csp.NewStore(), w, h)
	n := 2 + r.Intn(6)
	for i := 0; i < n; i++ {
		shapes := make([]ShapeGeom, 1+r.Intn(4))
		for s := range shapes {
			shapes[s] = pruneShape(r, w, h)
		}
		name := string(rune('a' + i))
		if _, err := got.AddObject(name, shapes); err != nil {
			continue // no feasible placement: leave it out of both
		}
		if _, err := ref.AddObject(name, shapes); err != nil {
			panic(err)
		}
	}
	for i, o := range got.objects {
		ro := ref.objects[i]
		switch r.Intn(3) {
		case 0:
			vals := o.Place.Domain().AppendValues(nil)
			val := vals[r.Intn(len(vals))]
			if got.st.Assign(o.Place, val) != nil || ref.st.Assign(ro.Place, val) != nil {
				panic("assign of an in-domain value failed")
			}
		case 1:
			// Search never sees an empty domain, so narrow only when
			// some value stays.
			mask := r.Int63()
			keep := func(val int) bool { return mask>>(val%63)&1 == 1 }
			if !slices.ContainsFunc(o.Place.Domain().AppendValues(nil), keep) {
				continue
			}
			if got.st.FilterDomain(o.Place, keep) != nil || ref.st.FilterDomain(ro.Place, keep) != nil {
				panic("a filter that keeps a value failed")
			}
		}
	}
	return got, ref
}

func domains(k *Kernel) [][]int {
	out := make([][]int, len(k.objects))
	for i, o := range k.objects {
		out[i] = o.Place.Domain().AppendValues(nil)
	}
	return out
}

// checkPruneOthers is the differential test of pruneOthers against
// refPruneOthers on the random kernel of one seed, with the occupancy
// of an assigned object (as nonOverlap passes it) or a random sparse
// occupancy (as compulsory passes its region), sometimes a band wider
// than a word against the space's right edge. Both must fail on the
// same states; where they succeed they must leave identical domains,
// and where they fail pruneOthers must have changed none. The kernel
// takes several calls, and a failed call is popped, so later calls
// start from the state the earlier ones pruned. Both must also count
// the same prunes, one per pruned object, removing the same values, so
// the solver's prune counters keep their meaning. It returns the number
// of failing calls and of pruned domains.
func checkPruneOthers(t *testing.T, seed int64) (fails, prunes int) {
	r := rand.New(rand.NewSource(seed))
	got, ref := pruneKernels(r)
	if len(got.objects) < 2 {
		return 0, 0
	}
	for call := 0; call < 6; call++ {
		i := r.Intn(len(got.objects))
		self, rself := got.objects[i], ref.objects[i]
		occ := grid.NewBitmap(got.w, got.h)
		var box grid.Rect
		if self.Assigned() && r.Intn(3) > 0 {
			sid, x, y := self.Placement()
			g := &self.Shapes[sid]
			occ.SetPointsAt(g.Points, grid.Pt(x, y), true)
			box = grid.RectXYWH(x, y, g.W, g.H)
		} else {
			for j := 1 + r.Intn(4); j > 0; j-- {
				occ.Set(r.Intn(got.w), r.Intn(got.h), true)
			}
			if got.w > 66 && r.Intn(3) == 0 {
				y := r.Intn(got.h)
				occ.Set(got.w-1, y, true)
				occ.Set(got.w-66-r.Intn(got.w-65), y, true)
			}
			box = occ.Extent()
		}
		before := domains(got)
		nG, valsG := got.st.Prunes()
		nR, valsR := ref.st.Prunes()
		got.st.Push()
		ref.st.Push()
		errG := got.pruneOthers(got.st, self, occ, box)
		errR := refPruneOthers(ref.st, ref, rself, occ, box)
		if (errG == nil) != (errR == nil) {
			t.Fatalf("seed %d call %d: pruneOthers %v, reference %v", seed, call, errG, errR)
		}
		nG, valsG = prunesSince(got.st, nG, valsG)
		nR, valsR = prunesSince(ref.st, nR, valsR)
		if errG != nil {
			fails++
			if nG != 0 {
				t.Fatalf("seed %d call %d: failing pruneOthers counted %d prunes", seed, call, nG)
			}
			for j, d := range domains(got) {
				if !slices.Equal(d, before[j]) {
					t.Fatalf("seed %d call %d: failing pruneOthers changed %s: %v, before %v",
						seed, call, got.objects[j].Name, d, before[j])
				}
			}
			// The reference has pruned part way: pop both back to
			// the state before the call.
			got.st.Pop()
			ref.st.Pop()
			continue
		}
		if nG != nR || valsG != valsR {
			t.Fatalf("seed %d call %d: pruneOthers counted %d prunes removing %d values, reference %d removing %d",
				seed, call, nG, valsG, nR, valsR)
		}
		rd := domains(ref)
		pruned, removed := int64(0), int64(0)
		for j, d := range domains(got) {
			if len(d) < len(before[j]) {
				prunes++
				pruned++
				removed += int64(len(before[j]) - len(d))
			}
			if !slices.Equal(d, rd[j]) {
				t.Fatalf("seed %d call %d: %s: pruneOthers left %v, reference %v",
					seed, call, got.objects[j].Name, d, rd[j])
			}
		}
		if nG != pruned || valsG != removed {
			t.Fatalf("seed %d call %d: pruneOthers counted %d prunes removing %d values, but pruned %d domains by %d values",
				seed, call, nG, valsG, pruned, removed)
		}
	}
	return fails, prunes
}

// prunesSince returns the prunes counted on st since it counted n,
// removing vals values.
func prunesSince(st *csp.Store, n, vals int64) (int64, int64) {
	n2, vals2 := st.Prunes()
	return n2 - n, vals2 - vals
}

// TestPruneOthersMatchesReference runs checkPruneOthers on seeds 1 to
// 1500 and checks that they reach both failing and pruning calls.
func TestPruneOthersMatchesReference(t *testing.T) {
	fails, prunes := 0, 0
	for seed := int64(1); seed <= 1500; seed++ {
		f, p := checkPruneOthers(t, seed)
		fails, prunes = fails+f, prunes+p
	}
	if fails == 0 || prunes == 0 {
		t.Fatalf("test premise broken: %d failing states, %d pruned domains", fails, prunes)
	}
	t.Logf("%d failing states, %d pruned domains", fails, prunes)
}

// FuzzPruneOthers mutates the kernel seed of the differential test,
// starting from the seeds TestPruneOthersMatchesReference runs.
func FuzzPruneOthers(f *testing.F) {
	for seed := int64(1); seed <= 1500; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkPruneOthers(t, seed) })
}

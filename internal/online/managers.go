package online

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// base carries the bookkeeping shared by all managers: the region, an
// occupancy mirror, the region's anchor table with per-shape anchor
// caches (the fused M_a ∧ M_b constraint, cached by shape fingerprint
// since tasks reuse module layouts), and the resident-task table.
type base struct {
	region   *fabric.Region
	occ      *grid.Bitmap
	table    *core.AnchorTable
	anchors  map[string]*grid.Bitmap
	resident map[TaskID][]grid.Point // absolute tiles per placed task

	key  []byte         // anchorsFor's key buffer
	scan []*grid.Bitmap // anchorsOf's result, reused scan to scan
}

func (b *base) reset(region *fabric.Region) {
	b.region = region
	b.occ = grid.NewBitmap(region.W(), region.H())
	b.table = core.NewAnchorTable(region)
	b.anchors = map[string]*grid.Bitmap{}
	b.resident = map[TaskID][]grid.Point{}
}

// anchorsFor returns the cached anchor bitmap of s. It renders the
// shape's key on every call, so a scan looks each shape up once.
func (b *base) anchorsFor(s *module.Shape) *grid.Bitmap {
	b.key = s.AppendKey(b.key[:0])
	if a, ok := b.anchors[string(b.key)]; ok {
		return a
	}
	a := b.table.Anchors(s)
	b.anchors[string(b.key)] = a
	return a
}

// anchorsOf returns the anchor bitmaps of m's first n shapes, valid
// until the next call.
func (b *base) anchorsOf(m *module.Module, n int) []*grid.Bitmap {
	b.scan = b.scan[:0]
	for si := 0; si < n; si++ {
		b.scan = append(b.scan, b.anchorsFor(m.Shape(si)))
	}
	return b.scan
}

// freeAt reports whether shape s, whose anchor bitmap is a, can go at
// (x, y): the cached anchor bitmap prefilters M_a ∧ M_b, and core.Fits
// decides against the manager's occupancy.
func (b *base) freeAt(a *grid.Bitmap, s *module.Shape, x, y int) bool {
	return a.Get(x, y) && core.Fits(b.region, b.occ, s, grid.Pt(x, y))
}

func (b *base) commit(id TaskID, m *module.Module, si, x, y int) {
	pts := m.Shape(si).PointsAt(grid.Pt(x, y))
	b.occ.SetPoints(pts, true)
	b.resident[id] = pts
}

// Release implements Manager.
func (b *base) Release(id TaskID) {
	pts, ok := b.resident[id]
	if !ok {
		return
	}
	delete(b.resident, id)
	b.occ.SetPoints(pts, false)
}

// Preplace implements Manager. The placement is checked exactly like
// TryPlace would (valid anchor, no overlap).
func (b *base) Preplace(id TaskID, m *module.Module, p Placement) bool {
	if _, ok := b.resident[id]; ok {
		return false
	}
	if p.Shape < 0 || p.Shape >= m.NumShapes() {
		return false
	}
	if s := m.Shape(p.Shape); !b.freeAt(b.anchorsFor(s), s, p.At.X, p.At.Y) {
		return false
	}
	b.commit(id, m, p.Shape, p.At.X, p.At.Y)
	return true
}

// shapeRange returns the shape indices a manager may use.
func shapeRange(m *module.Module, useAlternatives bool) int {
	if useAlternatives {
		return m.NumShapes()
	}
	return 1
}

// FirstFit is free-space management with bottom-left first-fit: the
// classic online policy (the "free space management" pole of the
// paper's classification).
type FirstFit struct {
	base
	// UseAlternatives lets the manager pick among design alternatives.
	UseAlternatives bool
}

// Name implements Manager.
func (m *FirstFit) Name() string {
	if m.UseAlternatives {
		return "first-fit+alternatives"
	}
	return "first-fit"
}

// Reset implements Manager.
func (m *FirstFit) Reset(region *fabric.Region) { m.reset(region) }

// TryPlace implements Manager.
func (m *FirstFit) TryPlace(t Task) (Placement, bool) {
	anchors := m.anchorsOf(t.Module, shapeRange(t.Module, m.UseAlternatives))
	for y := 0; y < m.region.H(); y++ {
		for x := 0; x < m.region.W(); x++ {
			for si, a := range anchors {
				if m.freeAt(a, t.Module.Shape(si), x, y) {
					m.commit(t.ID, t.Module, si, x, y)
					return Placement{Shape: si, At: grid.Pt(x, y)}, true
				}
			}
		}
	}
	return Placement{}, false
}

// BestFitMER is free-space management with maximal-empty-rectangle
// best-fit, after Bazargan et al. [4]: the free space is decomposed into
// maximal empty rectangles and the module goes into the rectangle whose
// area exceeds the module's bounding box by the least.
type BestFitMER struct {
	base
	UseAlternatives bool
}

// Name implements Manager.
func (m *BestFitMER) Name() string {
	if m.UseAlternatives {
		return "mer-best-fit+alternatives"
	}
	return "mer-best-fit"
}

// Reset implements Manager.
func (m *BestFitMER) Reset(region *fabric.Region) { m.reset(region) }

// TryPlace implements Manager.
func (m *BestFitMER) TryPlace(t Task) (Placement, bool) {
	mers := MaximalEmptyRects(m.region, m.occ)
	anchors := m.anchorsOf(t.Module, shapeRange(t.Module, m.UseAlternatives))
	bestWaste := 1 << 60
	var best Placement
	found := false
	for _, r := range mers {
		for si, a := range anchors {
			s := t.Module.Shape(si)
			if s.W() > r.W() || s.H() > r.H() {
				continue
			}
			waste := r.Area() - s.W()*s.H()
			if found && waste >= bestWaste {
				continue
			}
			// Heterogeneity: the rectangle is geometrically free but the
			// shape's resource pattern may only align at some anchors
			// inside it — scan bottom-left within the rectangle.
			if x, y, ok := anchorInRect(a, s, r); ok {
				bestWaste = waste
				best = Placement{Shape: si, At: grid.Pt(x, y)}
				found = true
			}
		}
	}
	if !found {
		return Placement{}, false
	}
	m.commit(t.ID, t.Module, best.Shape, best.At.X, best.At.Y)
	return best, true
}

// anchorInRect returns the bottom-left anchor of va, the anchor bitmap
// of s, at which s lies inside r.
func anchorInRect(va *grid.Bitmap, s *module.Shape, r grid.Rect) (int, int, bool) {
	for y := r.MinY; y+s.H() <= r.MaxY; y++ {
		for x := r.MinX; x+s.W() <= r.MaxX; x++ {
			// Tiles inside a maximal empty rect are unoccupied by
			// construction; only anchor validity needs checking.
			if va.Get(x, y) {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}

// OccupiedSpace is occupied-space management after Ahmadinia et al. [5]:
// candidate positions are derived from the boundaries of the already
// placed modules (and the region border) instead of scanning all free
// space; the bottom-left-most adjacent position wins. This both shrinks
// the candidate set and packs modules against each other.
type OccupiedSpace struct {
	base
	UseAlternatives bool
}

// Name implements Manager.
func (m *OccupiedSpace) Name() string {
	if m.UseAlternatives {
		return "occupied-space+alternatives"
	}
	return "occupied-space"
}

// Reset implements Manager.
func (m *OccupiedSpace) Reset(region *fabric.Region) { m.reset(region) }

// TryPlace implements Manager.
func (m *OccupiedSpace) TryPlace(t Task) (Placement, bool) {
	anchors := m.anchorsOf(t.Module, shapeRange(t.Module, m.UseAlternatives))
	for y := 0; y < m.region.H(); y++ {
		for x := 0; x < m.region.W(); x++ {
			for si, a := range anchors {
				if s := t.Module.Shape(si); m.freeAt(a, s, x, y) && m.touches(s, x, y) {
					m.commit(t.ID, t.Module, si, x, y)
					return Placement{Shape: si, At: grid.Pt(x, y)}, true
				}
			}
		}
	}
	return Placement{}, false
}

// touches reports whether the shape at (x, y) abuts the region border or
// an occupied tile — the "managed" positions of occupied-space policies.
func (m *OccupiedSpace) touches(s *module.Shape, x, y int) bool {
	for _, t := range s.Tiles() {
		ax, ay := t.At.X+x, t.At.Y+y
		if ax == 0 || ay == 0 || ax == m.region.W()-1 || ay == m.region.H()-1 {
			return true
		}
		if m.occ.Get(ax-1, ay) || m.occ.Get(ax+1, ay) ||
			m.occ.Get(ax, ay-1) || m.occ.Get(ax, ay+1) {
			return true
		}
	}
	return false
}

// Slot1D is 1D slot-style placement: the region is pre-partitioned into
// fixed-width, full-height slots and every module exclusively reserves a
// contiguous run of slots — the coarse model of early reconfigurable
// systems the paper's classification contrasts with 2D placement. The
// reserved-but-unused area is internal fragmentation.
type Slot1D struct {
	base
	// SlotWidth is the width of one slot in tiles (default 8).
	SlotWidth       int
	UseAlternatives bool

	slotBusy []bool
	slotOf   map[TaskID][]int
}

// Name implements Manager.
func (m *Slot1D) Name() string { return "1d-slots" }

// Reset implements Manager.
func (m *Slot1D) Reset(region *fabric.Region) {
	m.reset(region)
	if m.SlotWidth <= 0 {
		m.SlotWidth = 8
	}
	m.slotBusy = make([]bool, region.W()/m.SlotWidth)
	m.slotOf = map[TaskID][]int{}
}

// TryPlace implements Manager.
func (m *Slot1D) TryPlace(t Task) (Placement, bool) {
	n := shapeRange(t.Module, m.UseAlternatives)
	for si := 0; si < n; si++ {
		s := t.Module.Shape(si)
		a := m.anchorsFor(s)
		need := (s.W() + m.SlotWidth - 1) / m.SlotWidth
		for first := 0; first+need <= len(m.slotBusy); first++ {
			if !m.slotsFree(first, need) {
				continue
			}
			// The module may sit anywhere inside its reserved slots; the
			// fabric's resource pattern decides which anchors work.
			lo := first * m.SlotWidth
			hi := (first+need)*m.SlotWidth - s.W()
			for y := 0; y+s.H() <= m.region.H(); y++ {
				for x := lo; x <= hi; x++ {
					if m.freeAt(a, s, x, y) {
						m.commit(t.ID, t.Module, si, x, y)
						for i := first; i < first+need; i++ {
							m.slotBusy[i] = true
						}
						m.slotOf[t.ID] = append(m.slotOf[t.ID], rangeInts(first, need)...)
						return Placement{Shape: si, At: grid.Pt(x, y)}, true
					}
				}
			}
		}
	}
	return Placement{}, false
}

func (m *Slot1D) slotsFree(first, need int) bool {
	for i := first; i < first+need; i++ {
		if m.slotBusy[i] {
			return false
		}
	}
	return true
}

// Preplace implements Manager: the imposed placement additionally
// reserves every slot its footprint touches, keeping the exclusive-slot
// invariant that Release depends on.
func (m *Slot1D) Preplace(id TaskID, mod *module.Module, p Placement) bool {
	if p.Shape < 0 || p.Shape >= mod.NumShapes() {
		return false
	}
	s := mod.Shape(p.Shape)
	if p.At.X < 0 || m.SlotWidth <= 0 {
		return false
	}
	first := p.At.X / m.SlotWidth
	last := (p.At.X + s.W() - 1) / m.SlotWidth
	if last >= len(m.slotBusy) || !m.slotsFree(first, last-first+1) {
		return false
	}
	if !m.base.Preplace(id, mod, p) {
		return false
	}
	for i := first; i <= last; i++ {
		m.slotBusy[i] = true
	}
	m.slotOf[id] = append(m.slotOf[id], rangeInts(first, last-first+1)...)
	return true
}

// Release implements Manager.
func (m *Slot1D) Release(id TaskID) {
	m.base.Release(id)
	for _, i := range m.slotOf[id] {
		m.slotBusy[i] = false
	}
	delete(m.slotOf, id)
}

func rangeInts(first, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// Managers returns one instance of every policy, with and without design
// alternatives where the policy supports them.
func Managers() []Manager {
	return []Manager{
		&FirstFit{},
		&FirstFit{UseAlternatives: true},
		&BestFitMER{},
		&BestFitMER{UseAlternatives: true},
		&OccupiedSpace{},
		&OccupiedSpace{UseAlternatives: true},
		&Slot1D{},
	}
}

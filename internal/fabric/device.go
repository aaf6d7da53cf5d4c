package fabric

import (
	"fmt"
	"strings"

	"repro/internal/grid"
)

// Device is a W×H tile model of an FPGA. Tile (0, 0) is the bottom-left
// corner; x indexes columns and y indexes rows, matching the geometry
// conventions of package grid.
//
// A Device is mutable only through masking operations (MaskStatic); the
// resource pattern itself is fixed at construction. All placement code
// operates on a Region carved out of a Device.
type Device struct {
	name  string
	w, h  int
	kinds []Kind // row-major: kinds[y*w+x]
}

// NewDevice builds a device whose tile kinds are produced by at(x, y).
// It panics on non-positive dimensions or if at yields an invalid kind,
// since both indicate a programming error in a device family definition.
func NewDevice(name string, w, h int, at func(x, y int) Kind) *Device {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("fabric: invalid device size %dx%d", w, h))
	}
	d := &Device{name: name, w: w, h: h, kinds: make([]Kind, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			k := at(x, y)
			if !k.Valid() {
				panic(fmt.Sprintf("fabric: invalid kind %d at (%d,%d)", k, x, y))
			}
			d.kinds[y*w+x] = k
		}
	}
	return d
}

// Name returns the device family/name string.
func (d *Device) Name() string { return d.name }

// W returns the device width in tiles.
func (d *Device) W() int { return d.w }

// H returns the device height in tiles.
func (d *Device) H() int { return d.h }

// Bounds returns the full device rectangle [0,W)×[0,H).
func (d *Device) Bounds() grid.Rect { return grid.Rect{MinX: 0, MinY: 0, MaxX: d.w, MaxY: d.h} }

// KindAt returns the resource kind of tile (x, y). Out-of-range tiles
// report Static: anything beyond the die is equally unusable.
func (d *Device) KindAt(x, y int) Kind {
	if x < 0 || y < 0 || x >= d.w || y >= d.h {
		return Static
	}
	return d.kinds[y*d.w+x]
}

// MaskStatic marks every tile of r (clipped to the device) as Static.
// This is how the host design's area is withheld from the placer, as in
// Figure 4c of the paper where roughly half of the region is allocated
// to the static system.
func (d *Device) MaskStatic(r grid.Rect) {
	r = r.Intersect(d.Bounds())
	for y := r.MinY; y < r.MaxY; y++ {
		for x := r.MinX; x < r.MaxX; x++ {
			d.kinds[y*d.w+x] = Static
		}
	}
}

// Histogram counts device tiles by kind.
func (d *Device) Histogram() Histogram {
	var h Histogram
	for _, k := range d.kinds {
		h.Add(k)
	}
	return h
}

// Clone returns an independent copy of the device (used before masking
// experiments mutate the resource map).
func (d *Device) Clone() *Device {
	out := &Device{name: d.name, w: d.w, h: d.h, kinds: make([]Kind, len(d.kinds))}
	copy(out.kinds, d.kinds)
	return out
}

// Region returns the partial region covering r, clipped to the device.
func (d *Device) Region(r grid.Rect) *Region {
	return &Region{dev: d, bounds: r.Intersect(d.Bounds())}
}

// FullRegion returns the partial region covering the entire device.
func (d *Device) FullRegion() *Region { return d.Region(d.Bounds()) }

// String renders the device resource map, one glyph per tile, top row
// first. Intended for debugging and golden tests on small devices.
func (d *Device) String() string {
	var sb strings.Builder
	for y := d.h - 1; y >= 0; y-- {
		for x := 0; x < d.w; x++ {
			sb.WriteByte(d.KindAt(x, y).Rune())
		}
		if y > 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Region is a rectangular window of a device: the paper's "partial
// region" P, i.e. the part of the fabric handed to the module placer.
// Coordinates on a Region are region-local: (0, 0) is the bottom-left
// tile of the window. The placer never needs device-absolute
// coordinates; keeping regions zero-based keeps anchor arithmetic simple.
type Region struct {
	dev    *Device
	bounds grid.Rect
}

// W returns the region width in tiles.
func (r *Region) W() int { return r.bounds.W() }

// H returns the region height in tiles.
func (r *Region) H() int { return r.bounds.H() }

// Bounds returns the region-local rectangle [0,W)×[0,H).
func (r *Region) Bounds() grid.Rect { return grid.Rect{MinX: 0, MinY: 0, MaxX: r.W(), MaxY: r.H()} }

// DeviceBounds returns the window rectangle in device coordinates.
func (r *Region) DeviceBounds() grid.Rect { return r.bounds }

// Device returns the underlying device.
func (r *Region) Device() *Device { return r.dev }

// KindAt returns the resource kind at region-local (x, y); tiles outside
// the region report Static.
func (r *Region) KindAt(x, y int) Kind {
	if x < 0 || y < 0 || x >= r.W() || y >= r.H() {
		return Static
	}
	return r.dev.KindAt(r.bounds.MinX+x, r.bounds.MinY+y)
}

// PlaceableAt reports whether region-local (x, y) may host module logic.
func (r *Region) PlaceableAt(x, y int) bool { return r.KindAt(x, y).Placeable() }

// Histogram counts region tiles by kind.
func (r *Region) Histogram() Histogram {
	var h Histogram
	for y := 0; y < r.H(); y++ {
		for x := 0; x < r.W(); x++ {
			h.Add(r.KindAt(x, y))
		}
	}
	return h
}

// PlaceableCount returns the number of tiles that can host module logic.
func (r *Region) PlaceableCount() int { return r.Histogram().Placeable() }

// PlaceableInRows returns the number of placeable tiles with y < rows.
// It is the denominator of the average-resource-utilization metric: the
// usable capacity of the spanned extent.
func (r *Region) PlaceableInRows(rows int) int {
	if rows > r.H() {
		rows = r.H()
	}
	n := 0
	for y := 0; y < rows; y++ {
		for x := 0; x < r.W(); x++ {
			if r.PlaceableAt(x, y) {
				n++
			}
		}
	}
	return n
}

// String renders the region resource map, one glyph per tile, top row
// first.
func (r *Region) String() string {
	var sb strings.Builder
	for y := r.H() - 1; y >= 0; y-- {
		for x := 0; x < r.W(); x++ {
			sb.WriteByte(r.KindAt(x, y).Rune())
		}
		if y > 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

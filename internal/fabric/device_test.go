package fabric

import (
	"strings"
	"testing"

	"repro/internal/grid"
)

func stripeDevice() *Device {
	// 8 wide, 4 tall: column 3 is BRAM, column 6 is DSP, rest CLB.
	return NewDevice("stripe", 8, 4, func(x, y int) Kind {
		switch x {
		case 3:
			return BRAM
		case 6:
			return DSP
		}
		return CLB
	})
}

func TestDeviceBasics(t *testing.T) {
	d := stripeDevice()
	if d.W() != 8 || d.H() != 4 || d.Name() != "stripe" {
		t.Fatalf("basic accessors wrong: %dx%d %q", d.W(), d.H(), d.Name())
	}
	if d.KindAt(3, 2) != BRAM || d.KindAt(6, 0) != DSP || d.KindAt(0, 0) != CLB {
		t.Fatal("KindAt wrong")
	}
	if d.KindAt(-1, 0) != Static || d.KindAt(0, 4) != Static {
		t.Fatal("out-of-range KindAt must be Static")
	}
	h := d.Histogram()
	if h[BRAM] != 4 || h[DSP] != 4 || h[CLB] != 24 || h.Total() != 32 {
		t.Fatalf("histogram wrong: %v", h)
	}
}

func TestNewDevicePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero width":   func() { NewDevice("bad", 0, 4, func(x, y int) Kind { return CLB }) },
		"neg height":   func() { NewDevice("bad", 4, -1, func(x, y int) Kind { return CLB }) },
		"invalid kind": func() { NewDevice("bad", 2, 2, func(x, y int) Kind { return Kind(77) }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMaskStatic(t *testing.T) {
	d := stripeDevice()
	d.MaskStatic(grid.RectXYWH(0, 0, 4, 2))
	if d.KindAt(0, 0) != Static || d.KindAt(3, 1) != Static {
		t.Fatal("MaskStatic did not mask")
	}
	if d.KindAt(0, 2) != CLB || d.KindAt(4, 0) != CLB {
		t.Fatal("MaskStatic masked outside the rect")
	}
	// Clipping: masking beyond the die is fine.
	d.MaskStatic(grid.RectXYWH(7, 3, 100, 100))
	if d.KindAt(7, 3) != Static {
		t.Fatal("clipped mask failed")
	}
}

func TestDeviceCloneIndependent(t *testing.T) {
	d := stripeDevice()
	c := d.Clone()
	d.MaskStatic(d.Bounds())
	if c.KindAt(0, 0) != CLB {
		t.Fatal("clone shares storage with original")
	}
}

func TestRegionLocalCoordinates(t *testing.T) {
	d := stripeDevice()
	r := d.Region(grid.RectXYWH(2, 1, 4, 3))
	if r.W() != 4 || r.H() != 3 {
		t.Fatalf("region size %dx%d, want 4x3", r.W(), r.H())
	}
	// Region-local (1, 0) is device (3, 1): the BRAM column.
	if r.KindAt(1, 0) != BRAM {
		t.Fatalf("region KindAt(1,0) = %v, want BRAM", r.KindAt(1, 0))
	}
	if r.KindAt(-1, 0) != Static || r.KindAt(4, 0) != Static {
		t.Fatal("region out-of-range not Static")
	}
	if r.Device() != d {
		t.Fatal("Device accessor broken")
	}
	if r.DeviceBounds() != grid.RectXYWH(2, 1, 4, 3) {
		t.Fatalf("DeviceBounds = %v", r.DeviceBounds())
	}
}

func TestRegionClipsToDevice(t *testing.T) {
	d := stripeDevice()
	r := d.Region(grid.RectXYWH(6, 2, 10, 10))
	if r.W() != 2 || r.H() != 2 {
		t.Fatalf("clipped region %dx%d, want 2x2", r.W(), r.H())
	}
}

func TestRegionPlaceableCounts(t *testing.T) {
	d := stripeDevice()
	d.MaskStatic(grid.RectXYWH(0, 3, 8, 1)) // top row static
	r := d.FullRegion()
	if got := r.PlaceableCount(); got != 24 {
		t.Fatalf("PlaceableCount = %d, want 24", got)
	}
	if got := r.PlaceableInRows(1); got != 8 {
		t.Fatalf("PlaceableInRows(1) = %d, want 8", got)
	}
	if got := r.PlaceableInRows(100); got != 24 {
		t.Fatalf("PlaceableInRows(100) = %d, want 24 (clipped)", got)
	}
	if got := r.PlaceableInRows(0); got != 0 {
		t.Fatalf("PlaceableInRows(0) = %d, want 0", got)
	}
}

func TestDeviceString(t *testing.T) {
	d := NewDevice("tiny", 3, 2, func(x, y int) Kind {
		if x == 1 {
			return BRAM
		}
		return CLB
	})
	want := "cbc\ncbc"
	if got := d.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := d.FullRegion().String(); got != want {
		t.Fatalf("region String = %q, want %q", got, want)
	}
	if !strings.Contains(d.FullRegion().Histogram().String(), "BRAM:2") {
		t.Fatal("histogram String missing BRAM count")
	}
}

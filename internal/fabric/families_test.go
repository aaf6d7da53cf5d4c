package fabric

import (
	"testing"

	"repro/internal/grid"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid", Spec{Name: "v", W: 8, H: 8}, true},
		{"zero size", Spec{Name: "z", W: 0, H: 8}, false},
		{"bram out of range", Spec{Name: "b", W: 8, H: 8, BRAMColumns: []int{8}}, false},
		{"dsp negative", Spec{Name: "d", W: 8, H: 8, DSPColumns: []int{-1}}, false},
		{"clock out of range", Spec{Name: "c", W: 8, H: 8, ClockColumns: []int{9}}, false},
		{"negative period", Spec{Name: "p", W: 8, H: 8, ClockRowPeriod: -1}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate err = %v, want ok=%v", c.name, err, c.ok)
		}
		if _, err := c.spec.Build(); (err == nil) != c.ok {
			t.Errorf("%s: Build err mismatch", c.name)
		}
	}
}

func TestSpecBuildPriorities(t *testing.T) {
	spec := Spec{
		Name: "prio", W: 6, H: 4,
		BRAMColumns:  []int{2},
		DSPColumns:   []int{2, 3}, // column 2 contested: BRAM wins over DSP
		ClockColumns: []int{3},    // column 3 contested: clock wins over DSP
		IOBRing:      true,
	}
	d := spec.MustBuild()
	if d.KindAt(2, 0) != BRAM {
		t.Errorf("col 2 = %v, want BRAM", d.KindAt(2, 0))
	}
	if d.KindAt(3, 0) != Clock {
		t.Errorf("col 3 = %v, want Clock", d.KindAt(3, 0))
	}
	if d.KindAt(0, 0) != IOB || d.KindAt(5, 0) != IOB {
		t.Error("IOB ring missing")
	}
	if d.KindAt(1, 0) != CLB {
		t.Error("base column not CLB")
	}
}

func TestSpecClockRowInterruption(t *testing.T) {
	spec := Spec{
		Name: "clkrows", W: 4, H: 8,
		BRAMColumns:    []int{1},
		DSPColumns:     []int{2},
		ClockRowPeriod: 4,
	}
	d := spec.MustBuild()
	// Rows 3 and 7 inside BRAM/DSP columns become clock tiles.
	for _, y := range []int{3, 7} {
		if d.KindAt(1, y) != Clock || d.KindAt(2, y) != Clock {
			t.Fatalf("row %d not interrupted: %v/%v", y, d.KindAt(1, y), d.KindAt(2, y))
		}
		// CLB columns are unaffected.
		if d.KindAt(0, y) != CLB {
			t.Fatalf("CLB column interrupted at row %d", y)
		}
	}
	if d.KindAt(1, 0) != BRAM || d.KindAt(2, 2) != DSP {
		t.Fatal("non-interrupted rows lost their kind")
	}
}

func TestHomogeneous(t *testing.T) {
	d := Homogeneous(10, 5)
	h := d.Histogram()
	if h[CLB] != 50 || h.Total() != 50 {
		t.Fatalf("homogeneous histogram: %v", h)
	}
}

func TestVirtexLikeStructure(t *testing.T) {
	d := VirtexLike(48, 16)
	h := d.Histogram()
	if h[BRAM] == 0 || h[DSP] == 0 || h[Clock] == 0 || h[IOB] == 0 {
		t.Fatalf("VirtexLike missing resource kinds: %v", h)
	}
	if h[CLB] <= h[BRAM] {
		t.Fatalf("CLB should dominate: %v", h)
	}
	// Regular alignment: BRAM columns are uniform top to bottom.
	for x := 0; x < d.W(); x++ {
		k0 := d.KindAt(x, 0)
		for y := 1; y < d.H(); y++ {
			if d.KindAt(x, y) != k0 {
				t.Fatalf("VirtexLike column %d not uniform", x)
			}
		}
	}
}

func TestIrregularVirtexLikeStructure(t *testing.T) {
	d := IrregularVirtexLike(48, 32, 1)
	h := d.Histogram()
	if h[BRAM] == 0 || h[DSP] == 0 {
		t.Fatalf("irregular device missing dedicated resources: %v", h)
	}
	// Clock-row interruption: some BRAM column must contain a clock tile.
	interrupted := false
	for x := 0; x < d.W() && !interrupted; x++ {
		hasBRAM, hasClock := false, false
		for y := 0; y < d.H(); y++ {
			switch d.KindAt(x, y) {
			case BRAM:
				hasBRAM = true
			case Clock:
				hasClock = true
			}
		}
		if hasBRAM && hasClock {
			interrupted = true
		}
	}
	if !interrupted {
		t.Fatal("no clock-interrupted BRAM column found")
	}
}

func TestIrregularVirtexLikeDeterministic(t *testing.T) {
	a := IrregularVirtexLike(48, 16, 7)
	b := IrregularVirtexLike(48, 16, 7)
	if a.String() != b.String() {
		t.Fatal("same seed produced different devices")
	}
	c := IrregularVirtexLike(48, 16, 8)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical devices (suspicious)")
	}
}

func TestIrregularDiffersFromRegular(t *testing.T) {
	reg := VirtexLike(48, 16)
	irr := IrregularVirtexLike(48, 16, 3)
	if reg.String() == irr.String() {
		t.Fatal("irregular fabric identical to regular fabric")
	}
	_ = grid.Pt(0, 0) // keep grid import for the helper below
}

func TestCatalog(t *testing.T) {
	names := Catalog()
	if len(names) < 4 {
		t.Fatalf("catalog too small: %v", names)
	}
	for _, n := range names {
		dev, err := ByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if dev.W() <= 0 || dev.H() <= 0 {
			t.Fatalf("%s: degenerate device", n)
		}
		// Fresh instance each call: masking one must not affect the next.
		dev.MaskStatic(dev.Bounds())
		dev2, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if dev2.Histogram()[Static] == dev2.Histogram().Total() {
			t.Fatalf("%s: catalog returned shared device state", n)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

// TestCheckName pins the name-only check against ByName: the same
// names pass, and an unknown name fails with the same error.
func TestCheckName(t *testing.T) {
	for _, n := range Catalog() {
		if err := CheckName(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	_, want := ByName("nonexistent")
	if got := CheckName("nonexistent"); got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("CheckName error %v, ByName error %v", got, want)
	}
}

func TestCatalogVirtex4MatchesTableI(t *testing.T) {
	dev, err := ByName("virtex4-like-72x60")
	if err != nil {
		t.Fatal(err)
	}
	if dev.W() != 72 || dev.H() != 60 {
		t.Fatalf("size %dx%d", dev.W(), dev.H())
	}
	if dev.KindAt(6, 0) != BRAM || dev.KindAt(17, 0) != DSP || dev.KindAt(29, 0) != Clock {
		t.Fatal("column layout wrong")
	}
	if dev.KindAt(6, 15) != Clock {
		t.Fatal("clock-row interruption missing")
	}
}

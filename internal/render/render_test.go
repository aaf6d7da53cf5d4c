package render

import (
	"bytes"
	"image/png"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

func testRegion() *fabric.Region {
	return fabric.NewDevice("t", 5, 3, func(x, y int) fabric.Kind {
		if x == 2 {
			return fabric.BRAM
		}
		return fabric.CLB
	}).FullRegion()
}

func clbModule(name string, w, h int) *module.Module {
	var tiles []module.Tile
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tiles = append(tiles, module.Tile{At: grid.Pt(x, y), Kind: fabric.CLB})
		}
	}
	m, err := module.NewModule(name, module.MustShape(tiles))
	if err != nil {
		panic(err)
	}
	return m
}

func TestRegionRender(t *testing.T) {
	got := Region(testRegion())
	want := "ccbcc\nccbcc\nccbcc"
	if got != want {
		t.Fatalf("Region = %q, want %q", got, want)
	}
}

func TestPlacementsRender(t *testing.T) {
	r := testRegion()
	ps := []core.Placement{
		{Module: clbModule("a", 2, 2), ShapeIndex: 0, At: grid.Pt(0, 0)},
		{Module: clbModule("b", 1, 1), ShapeIndex: 0, At: grid.Pt(4, 2)},
	}
	got := Placements(r, ps)
	want := "ccbcB\nAAbcc\nAAbcc"
	if got != want {
		t.Fatalf("Placements =\n%s\nwant\n%s", got, want)
	}
}

func TestPlacementsWithRuler(t *testing.T) {
	r := testRegion()
	ps := []core.Placement{{Module: clbModule("a", 1, 1), ShapeIndex: 0, At: grid.Pt(0, 0)}}
	got := PlacementsWithRuler(r, ps)
	if !strings.Contains(got, "A = a (shape 0 at (0,0))") {
		t.Fatalf("legend missing:\n%s", got)
	}
	if !strings.Contains(got, "  0 |") || !strings.Contains(got, "  2 |") {
		t.Fatalf("row ruler missing:\n%s", got)
	}
}

func TestShapeAlternativesSideBySide(t *testing.T) {
	m, err := module.GenerateAlternatives("fig1", module.Demand{CLB: 6, BRAM: 2},
		module.AlternativeOptions{Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := ShapeAlternatives(m)
	if !strings.Contains(got, "fig1: 3 design alternatives") {
		t.Fatalf("header missing:\n%s", got)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	// All body lines equal length (side-by-side blocks aligned).
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Fatalf("ragged output:\n%s", got)
		}
	}
	if !strings.Contains(got, "b") {
		t.Fatalf("BRAM glyph missing:\n%s", got)
	}
}

func TestSideBySide(t *testing.T) {
	got := SideBySide("L", "aa\nbb", "R", "xx\nyy\nzz")
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("line count = %d:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "L") || !strings.Contains(lines[0], "R") {
		t.Fatalf("captions wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "aa") || !strings.Contains(lines[1], "xx") {
		t.Fatalf("rows not joined: %q", lines[1])
	}
	if !strings.Contains(lines[3], "zz") {
		t.Fatalf("tail row lost: %q", lines[3])
	}
}

func TestAnchorMask(t *testing.T) {
	r := testRegion()
	mask := grid.NewBitmap(5, 3)
	mask.Set(0, 0, true)
	mask.Set(3, 2, true)
	got := AnchorMask(r, mask)
	want := "ccb*c\nccbcc\n*cbcc"
	if got != want {
		t.Fatalf("AnchorMask = %q, want %q", got, want)
	}
}

func TestModuleGlyphCycles(t *testing.T) {
	if moduleGlyph(0) != 'A' || moduleGlyph(25) != 'Z' || moduleGlyph(26) != 'a' {
		t.Fatal("glyph order wrong")
	}
	if moduleGlyph(62) != 'A' {
		t.Fatal("glyph cycling wrong")
	}
}

func TestSVG(t *testing.T) {
	r := testRegion()
	ps := []core.Placement{{Module: clbModule("mod", 2, 2), ShapeIndex: 0, At: grid.Pt(0, 0)}}
	var sb strings.Builder
	if err := SVG(&sb, r, ps, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if !strings.Contains(out, ">mod</text>") {
		t.Fatal("module label missing")
	}
	// 15 background tiles + 4 module tiles.
	if n := strings.Count(out, "<rect"); n != 19 {
		t.Fatalf("rect count = %d, want 19", n)
	}
	// Default cell size path.
	var sb2 strings.Builder
	if err := SVG(&sb2, r, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), `width="40"`) {
		t.Fatal("default cell size not applied")
	}
}

func TestPNG(t *testing.T) {
	r := testRegion()
	ps := []core.Placement{{Module: clbModule("m", 2, 2), ShapeIndex: 0, At: grid.Pt(0, 0)}}
	var buf bytes.Buffer
	if err := PNG(&buf, r, ps, 4); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 5*4 || b.Dy() != 3*4 {
		t.Fatalf("image size %dx%d", b.Dx(), b.Dy())
	}
	// The module tile at (0,0) renders bottom-left in module colour (not
	// the CLB background). Sample inside the tile, off the grid line.
	c := img.At(2, b.Dy()-2)
	r8, g8, b8, _ := c.RGBA()
	if r8>>8 == 0xe8 && g8>>8 == 0xe8 && b8>>8 == 0xe8 {
		t.Fatal("module tile rendered as background")
	}
	// Default cell size path.
	var buf2 bytes.Buffer
	if err := PNG(&buf2, r, nil, 0); err != nil {
		t.Fatal(err)
	}
	img2, err := png.Decode(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if img2.Bounds().Dx() != 5*8 {
		t.Fatal("default cell size wrong")
	}
}

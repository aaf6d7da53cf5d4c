package recobus

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

const regionText = `
# demo partial region
region demo 24 16
bramcols 5 17
dspcols 11
clockrows 8
static 0 12 24 4
bus 0 8
`

const modulesText = `
module filter
demand 12 2 0
alternatives 4

module ctrl          # explicit layouts
shape
rect 0 0 3 2 CLB
end
shape
rect 0 0 2 3 CLB
end
`

func TestParseRegion(t *testing.T) {
	spec, err := ParseRegion(strings.NewReader(regionText))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Fabric.Name != "demo" || spec.Fabric.W != 24 || spec.Fabric.H != 16 {
		t.Fatalf("fabric: %+v", spec.Fabric)
	}
	if len(spec.Fabric.BRAMColumns) != 2 || spec.Fabric.BRAMColumns[1] != 17 {
		t.Fatalf("bram cols: %v", spec.Fabric.BRAMColumns)
	}
	if spec.Fabric.ClockRowPeriod != 8 {
		t.Fatalf("clock rows: %d", spec.Fabric.ClockRowPeriod)
	}
	if len(spec.Statics) != 1 || spec.Statics[0] != grid.RectXYWH(0, 12, 24, 4) {
		t.Fatalf("statics: %v", spec.Statics)
	}
	if len(spec.BusRows) != 2 || spec.BusRows[0] != 0 || spec.BusRows[1] != 8 {
		t.Fatalf("bus rows: %v", spec.BusRows)
	}
	region, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if region.KindAt(0, 12) != fabric.Static {
		t.Fatal("static rect not masked")
	}
	if region.KindAt(5, 0) != fabric.BRAM {
		t.Fatal("BRAM column missing")
	}
}

func TestParseRegionErrors(t *testing.T) {
	cases := map[string]string{
		"missing region": "bramcols 2\n",
		"bad directive":  "region r 4 4\nfrobnicate 1\n",
		"bad dims":       "region r x 4\n",
		"bad static":     "region r 4 4\nstatic 1 2\n",
		"bad ints":       "region r 4 4\nbramcols a\n",
		"empty cols":     "region r 4 4\nbramcols\n",
	}
	for name, text := range cases {
		if _, err := ParseRegion(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Bus row out of range is caught at Build.
	spec, err := ParseRegion(strings.NewReader("region r 4 4\nbus 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(); err == nil {
		t.Error("out-of-range bus row accepted")
	}
}

func TestParseModules(t *testing.T) {
	mods, err := ParseModules(strings.NewReader(modulesText))
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 2 {
		t.Fatalf("modules = %d", len(mods))
	}
	if mods[0].Name() != "filter" || mods[0].NumShapes() != 4 {
		t.Fatalf("filter: %v", mods[0])
	}
	h := mods[0].Shape(0).Histogram()
	if h[fabric.CLB] != 12 || h[fabric.BRAM] != 2 {
		t.Fatalf("filter resources: %v", h)
	}
	if mods[1].Name() != "ctrl" || mods[1].NumShapes() != 2 {
		t.Fatalf("ctrl: %v", mods[1])
	}
	if mods[1].Shape(0).W() != 3 || mods[1].Shape(1).W() != 2 {
		t.Fatal("ctrl shapes wrong")
	}
}

func TestParseModulesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"no body":            "module m\n",
		"demand outside":     "demand 1 0 0\n",
		"mixed":              "module m\ndemand 4 0 0\nshape\ntile 0 0 CLB\nend\n",
		"unterminated shape": "module m\nshape\ntile 0 0 CLB\n",
		"nested shape":       "module m\nshape\nshape\n",
		"tile outside":       "module m\ntile 0 0 CLB\n",
		"bad kind":           "module m\nshape\ntile 0 0 FOO\nend\n",
		"bad rect":           "module m\nshape\nrect 0 0 1 CLB\nend\n",
		"end outside":        "module m\nend\n",
		"unknown":            "module m\nwibble\n",
	}
	for name, text := range cases {
		if _, err := ParseModules(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestModulesRoundTrip(t *testing.T) {
	mods, err := ParseModules(strings.NewReader(modulesText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModules(&buf, mods); err != nil {
		t.Fatal(err)
	}
	mods2, err := ParseModules(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(mods2) != len(mods) {
		t.Fatal("module count changed")
	}
	for i := range mods {
		if mods[i].NumShapes() != mods2[i].NumShapes() {
			t.Fatalf("module %d shape count changed", i)
		}
		for si := range mods[i].Shapes() {
			if !mods[i].Shape(si).Equal(mods2[i].Shape(si)) {
				t.Fatalf("module %d shape %d changed", i, si)
			}
		}
	}
}

func TestFlowEndToEnd(t *testing.T) {
	flow, err := LoadFlow(strings.NewReader(regionText), strings.NewReader(modulesText))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Place(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("flow found no placement")
	}
	// Bus constraint: every module crosses row 0 or row 8.
	for _, p := range res.Placements {
		b := p.Bounds()
		if !(b.MinY <= 0 && 0 < b.MaxY) && !(b.MinY <= 8 && 8 < b.MaxY) {
			t.Fatalf("%v does not attach to a bus row", p)
		}
	}
	bs, err := flow.Assemble(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("bitstreams = %d", len(bs))
	}
	for _, b := range bs {
		if b.Frames <= 0 || b.Bytes <= 0 || b.ReconfigTime <= 0 {
			t.Fatalf("degenerate bitstream: %v", b)
		}
	}
	if TotalReconfigTime(bs) <= bs[0].ReconfigTime {
		t.Fatal("total reconfig time wrong")
	}
}

func TestAssembleUnplaced(t *testing.T) {
	region := fabric.Homogeneous(4, 4).FullRegion()
	if _, err := Assemble(region, &core.Result{}, fabric.DefaultFrameModel()); err == nil {
		t.Fatal("assembled an unplaced result")
	}
	bad := fabric.FrameModel{}
	if _, err := Assemble(region, &core.Result{Found: true}, bad); err == nil {
		t.Fatal("invalid frame model accepted")
	}
}

func TestBitstreamEncodeDecode(t *testing.T) {
	b := Bitstream{Module: "filter", ShapeIndex: 2, X: 5, Y: 7, Frames: 10, Bytes: 40}
	blob := b.Encode()
	got, err := DecodeBitstream(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("round trip: %+v != %+v", got, b)
	}
	if _, err := DecodeBitstream(blob[:8]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	blob[0] ^= 0xff
	if _, err := DecodeBitstream(blob); err == nil {
		t.Fatal("bad magic accepted")
	}
	if !strings.Contains(b.String(), "filter@(5,7)") {
		t.Fatalf("String = %q", b.String())
	}
}

func TestRelocationClassesHomogeneous(t *testing.T) {
	region := fabric.Homogeneous(8, 6).FullRegion()
	s := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.CLB},
	})
	classes := RelocationClasses(region, s)
	if len(classes) != 1 {
		t.Fatalf("homogeneous fabric should give one class, got %d", len(classes))
	}
	sum := SummarizeRelocation(region, s)
	if sum.Anchors != 7*6 || sum.Ratio() != 1.0 {
		t.Fatalf("summary: %v", sum)
	}
}

func TestRelocationClassesHeterogeneous(t *testing.T) {
	// A clock-interrupted BRAM column splits BRAM-adjacent anchors into
	// multiple signatures.
	spec := fabric.Spec{Name: "rc", W: 8, H: 8, BRAMColumns: []int{3}, ClockRowPeriod: 4}
	region := spec.MustBuild().FullRegion()
	s := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.BRAM},
		{At: grid.Pt(1, 0), Kind: fabric.CLB},
		{At: grid.Pt(0, 1), Kind: fabric.BRAM},
		{At: grid.Pt(1, 1), Kind: fabric.CLB},
	})
	classes := RelocationClasses(region, s)
	total := 0
	for _, c := range classes {
		total += len(c.Anchors)
		// All anchors of a class really share a signature.
		for _, a := range c.Anchors {
			sig := ""
			for dy := 0; dy < s.H(); dy++ {
				for dx := 0; dx < s.W(); dx++ {
					sig += string(region.KindAt(a.X+dx, a.Y+dy).Rune())
				}
			}
			if sig != c.Signature {
				t.Fatalf("anchor %v signature mismatch", a)
			}
		}
	}
	sum := SummarizeRelocation(region, s)
	if sum.Anchors != total || sum.Classes != len(classes) {
		t.Fatalf("summary inconsistent: %v vs %d classes %d anchors", sum, len(classes), total)
	}
	// Classes sorted largest first.
	for i := 1; i < len(classes); i++ {
		if len(classes[i].Anchors) > len(classes[i-1].Anchors) {
			t.Fatal("classes not sorted by size")
		}
	}
}

func TestRelocationMaskingCollapsesClasses(t *testing.T) {
	// The [9] trade-off: a module using the BRAM column has fewer
	// relocation options than its masked (CLB-only) equivalent on the
	// same fabric.
	spec := fabric.Spec{Name: "rc2", W: 12, H: 8, BRAMColumns: []int{5}, ClockRowPeriod: 4}
	region := spec.MustBuild().FullRegion()
	native := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.BRAM},
		{At: grid.Pt(1, 0), Kind: fabric.CLB},
	})
	masked := module.MustShape([]module.Tile{
		{At: grid.Pt(0, 0), Kind: fabric.CLB},
		{At: grid.Pt(1, 0), Kind: fabric.CLB},
	})
	nativeSum := SummarizeRelocation(region, native)
	maskedSum := SummarizeRelocation(region, masked)
	if maskedSum.Anchors <= nativeSum.Anchors {
		t.Fatalf("masked module should have more anchors: %v vs %v", maskedSum, nativeSum)
	}
	if maskedSum.Ratio() < nativeSum.Ratio() {
		t.Fatalf("masked module should be at least as relocatable: %v vs %v", maskedSum, nativeSum)
	}
	if nativeSum.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestRelocationNoAnchors(t *testing.T) {
	region := fabric.Homogeneous(4, 4).FullRegion()
	s := module.MustShape([]module.Tile{{At: grid.Pt(0, 0), Kind: fabric.DSP}})
	if got := len(RelocationClasses(region, s)); got != 0 {
		t.Fatalf("classes = %d for unplaceable shape", got)
	}
	if SummarizeRelocation(region, s).Ratio() != 0 {
		t.Fatal("ratio of no anchors should be 0")
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	flow, err := LoadFlow(strings.NewReader(regionText), strings.NewReader(modulesText))
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.Place(core.Options{})
	if err != nil || !res.Found {
		t.Fatalf("place: %v %v", err, res)
	}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlacement(&buf, flow.Region, flow.Modules)
	if err != nil {
		t.Fatal(err)
	}
	if back.Height != res.Height || len(back.Placements) != len(res.Placements) {
		t.Fatalf("round trip changed result: %v vs %v", back, res)
	}
	for i := range res.Placements {
		if res.Placements[i].At != back.Placements[i].At ||
			res.Placements[i].ShapeIndex != back.Placements[i].ShapeIndex {
			t.Fatalf("placement %d changed", i)
		}
	}
}

func TestWritePlacementUnplaced(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlacement(&buf, &core.Result{}); err == nil {
		t.Fatal("unplaced result written")
	}
}

func TestParsePlacementErrors(t *testing.T) {
	flow, err := LoadFlow(strings.NewReader(regionText), strings.NewReader(modulesText))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"bad directive":  "placed filter 0 0 0\n",
		"unknown module": "place ghost 0 0 0\n",
		"bad shape":      "place filter 9 0 0\n",
		"bad ints":       "place filter x 0 0\n",
		"duplicate":      "place filter 0 0 0\nplace filter 0 6 0\nplace ctrl 0 12 0\n",
		"incomplete":     "place filter 0 0 0\n",
		"overlap":        "place filter 0 4 0\nplace ctrl 0 5 0\n",
		"off region":     "place filter 0 23 0\nplace ctrl 0 0 0\n",
	}
	for name, text := range cases {
		if _, err := ParsePlacement(strings.NewReader(text), flow.Region, flow.Modules); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

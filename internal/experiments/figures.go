package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/render"
	"repro/internal/workload"
)

// Fig1 regenerates Figure 1: one module rendered as five functionally
// equivalent design alternatives consuming identical resources but with
// different layouts (and hence different bounding boxes).
func Fig1() string {
	m, err := module.GenerateAlternatives("fig1", module.Demand{CLB: 18, BRAM: 2},
		module.AlternativeOptions{Count: 5})
	if err != nil {
		//solverlint:allow nakedpanic the demand is a fixed literal; GenerateAlternatives cannot fail on it
		panic(err)
	}
	var sb strings.Builder
	sb.WriteString(render.ShapeAlternatives(m))
	sb.WriteString("\nAll alternatives consume ")
	sb.WriteString(m.Shape(0).Histogram().String())
	sb.WriteString("; glyphs: c=CLB tile, b=BRAM tile, .=unused bounding-box cell\n")
	return sb.String()
}

// figDevice builds the small heterogeneous region used by Figures 3
// and 4: 24×12 with two BRAM columns.
func figDevice() *fabric.Device {
	spec := fabric.Spec{
		Name:        "fig-24x12",
		W:           24,
		H:           12,
		BRAMColumns: []int{4, 16},
	}
	return spec.MustBuild()
}

// figPlaceBoth places mods on region with and without design
// alternatives and renders the two placements side by side, mirroring
// Figures 3 and 5 (top/bottom in the paper).
func figPlaceBoth(region *fabric.Region, mods []*module.Module) (string, error) {
	p := core.New(region, core.Options{Timeout: 20 * time.Second, StallNodes: 4000})
	with, err := p.Place(mods)
	if err != nil {
		return "", err
	}
	if err := with.Validate(region); err != nil {
		return "", err
	}
	without, err := p.Place(workload.FirstShapesOnly(mods))
	if err != nil {
		return "", err
	}
	if err := without.Validate(region); err != nil {
		return "", err
	}
	return render.SideBySide(
		figLabel("With design alternatives", with), render.Placements(region, with.Placements),
		figLabel("Without design alternatives", without), render.Placements(region, without.Placements),
	), nil
}

// figLabel captions one placement of a figure. Unlike the result's
// String it leaves out the solve time, so a figure is byte-identical
// from run to run.
func figLabel(caption string, res *core.Result) string {
	opt := "anytime/" + res.Reason.String()
	if res.Optimal {
		opt = "optimal"
	}
	return fmt.Sprintf("%s: height=%d util=%.1f%% (%s, nodes=%d)",
		caption, res.Height, res.Utilization*100, opt, res.Nodes)
}

// Fig3 regenerates Figure 3: optimal placement of a module set where
// each module carries two layouts (base and its 180° rotation), against
// the same set restricted to the base layout.
func Fig3() (string, error) {
	region := figDevice().FullRegion()
	rng := rand.New(rand.NewSource(1))
	mods, err := workload.Generate(workload.Config{
		NumModules: 6,
		CLBMin:     6, CLBMax: 14,
		BRAMMin: 0, BRAMMax: 2,
		Alternatives: 2, // base + rot180
	}, rng)
	if err != nil {
		return "", err
	}
	return figPlaceBoth(region, mods)
}

// Fig4 regenerates the four constraint-illustration panels of Figure 4:
// (a) the partial-region bounding box, (b) resource-feasible anchors of
// one module, (c) the reconfigurable region after masking a static
// partition, (d) a placed module shadowing its area.
func Fig4() (string, error) {
	dev := figDevice()
	region := dev.FullRegion()
	m, err := module.GenerateAlternatives("m", module.Demand{CLB: 8, BRAM: 2},
		module.AlternativeOptions{Count: 1})
	if err != nil {
		return "", err
	}
	shape := m.Shape(0)

	var sb strings.Builder
	sb.WriteString("(a) Module placement constrained to the partial region bounding box:\n")
	sb.WriteString(render.Region(region))
	sb.WriteString("\n\n(b) Resource-feasible anchor positions (*) of the module below:\n")
	sb.WriteString(render.Shape(shape))
	sb.WriteString("\n--\n")
	sb.WriteString(render.AnchorMask(region, core.ValidAnchors(region, shape)))

	masked := dev.Clone()
	masked.MaskStatic(grid.RectXYWH(12, 0, 12, 12)) // right half static
	maskedRegion := masked.FullRegion()
	sb.WriteString("\n\n(c) Placement restricted to the reconfigurable region (right half static '#'):\n")
	sb.WriteString(render.Region(maskedRegion))

	res, err := core.New(maskedRegion, core.Options{}).Place([]*module.Module{m})
	if err != nil {
		return "", err
	}
	if !res.Found {
		return "", fmt.Errorf("experiments: fig4 module unplaceable")
	}
	sb.WriteString("\n\n(d) A placed module; no other module may overlap its tiles:\n")
	sb.WriteString(render.Placements(maskedRegion, res.Placements))
	sb.WriteString("\n")
	return sb.String(), nil
}

// Fig5 regenerates Figure 5: a larger module set placed with and
// without optional design alternatives.
func Fig5() (string, error) {
	spec := fabric.Spec{
		Name:        "fig5-36x24",
		W:           36,
		H:           24,
		BRAMColumns: []int{5, 17, 29},
		DSPColumns:  []int{16},
	}
	region := spec.MustBuild().FullRegion()
	rng := rand.New(rand.NewSource(5))
	mods, err := workload.Generate(workload.Config{
		NumModules: 12,
		CLBMin:     8, CLBMax: 24,
		BRAMMin: 0, BRAMMax: 3,
		Alternatives: 4,
	}, rng)
	if err != nil {
		return "", err
	}
	return figPlaceBoth(region, mods)
}

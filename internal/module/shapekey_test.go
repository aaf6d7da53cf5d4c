package module_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// fmtKey is the shape-key encoding spelled with fmt, one "x,y,kind;"
// per normalised tile. Shape.Key must reproduce it byte for byte:
// canonical digests hash these keys, so any drift would re-key every
// cached and committed digest.
func fmtKey(s *module.Shape) string {
	var sb strings.Builder
	for _, t := range s.Tiles() {
		fmt.Fprintf(&sb, "%d,%d,%d;", t.At.X, t.At.Y, t.Kind)
	}
	return sb.String()
}

func TestShapeKeyMatchesFmtEncoding(t *testing.T) {
	var shapes []*module.Shape
	for _, cfg := range []workload.Config{
		{},
		{NumModules: 12, CLBMin: 200, CLBMax: 400, DSPMax: 6},
		{NumModules: 8, NoBRAM: true, Alternatives: 1},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, m := range workload.MustGenerate(cfg, rand.New(rand.NewSource(seed))) {
				shapes = append(shapes, m.Shapes()...)
			}
		}
	}
	// Hand-made shapes: dedicated columns, negative and multi-digit
	// input coordinates (normalised away), tiles listed out of order.
	shapes = append(shapes,
		module.MustShape([]module.Tile{
			{At: grid.Pt(11, 3), Kind: fabric.BRAM},
			{At: grid.Pt(10, 3), Kind: fabric.CLB},
			{At: grid.Pt(12, 4), Kind: fabric.DSP},
			{At: grid.Pt(10, 4), Kind: fabric.CLB},
		}),
		module.MustShape([]module.Tile{
			{At: grid.Pt(-5, -7), Kind: fabric.DSP},
			{At: grid.Pt(-5, 6), Kind: fabric.BRAM},
			{At: grid.Pt(7, -7), Kind: fabric.CLB},
		}),
	)
	for i, s := range shapes {
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Fatalf("shape %d: key %q, fmt encoding %q", i, got, want)
		}
	}
}

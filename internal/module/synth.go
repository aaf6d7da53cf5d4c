package module

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/grid"
)

// Demand states how many tiles of each placeable resource a module
// implementation needs. It corresponds to the resource requirements the
// paper's workload generator draws (20–100 CLBs, 0–4 embedded memory
// blocks).
type Demand struct {
	CLB  int
	BRAM int
	DSP  int
}

// Total returns the total tile count of the demand.
func (d Demand) Total() int { return d.CLB + d.BRAM + d.DSP }

// Validate reports the first inconsistency: demands must be non-negative
// and include at least one tile.
func (d Demand) Validate() error {
	if d.CLB < 0 || d.BRAM < 0 || d.DSP < 0 {
		return fmt.Errorf("module: negative demand %+v", d)
	}
	if d.Total() == 0 {
		return fmt.Errorf("module: empty demand")
	}
	return nil
}

// Side selects on which side of a synthesised layout the dedicated
// resource columns sit. Two sides of the same bounding box are the
// paper's "internal layout" alternatives: same external shape, dedicated
// resources at different positions within it.
type Side uint8

// Dedicated-column placement sides.
const (
	DedicatedLeft Side = iota
	DedicatedRight
)

// String names the side.
func (s Side) String() string {
	if s == DedicatedLeft {
		return "left"
	}
	return "right"
}

// Synthesize builds one shape realising demand within a bounding box of
// the given width, mirroring how ReCoBus-style module implementations
// are floorplanned: dedicated resources (BRAM, then DSP) occupy their own
// full columns on the chosen side — matching the column structure of the
// target fabric — and CLBs fill the remaining columns bottom-up as
// evenly as possible.
//
// The resulting shape is generally not a full rectangle: trailing CLB
// columns may be shorter, and dedicated columns only carry as many tiles
// as demanded. That unevenness is what makes 180° rotation a genuinely
// different layout.
func Synthesize(d Demand, width int, side Side) (*Shape, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if width < 1 {
		return nil, fmt.Errorf("module: width %d < 1", width)
	}
	dedicated := 0
	if d.BRAM > 0 {
		dedicated++
	}
	if d.DSP > 0 {
		dedicated++
	}
	clbCols := width - dedicated
	if d.CLB > 0 && clbCols < 1 {
		return nil, fmt.Errorf("module: width %d leaves no CLB columns (dedicated=%d)", width, dedicated)
	}
	if d.CLB == 0 && dedicated == 0 {
		return nil, fmt.Errorf("module: demand %+v has nothing to lay out", d)
	}

	// Assign column x positions: dedicated columns grouped at the chosen
	// side, BRAM outermost.
	var bramX, dspX = -1, -1
	var clbStart int
	switch side {
	case DedicatedLeft:
		next := 0
		if d.BRAM > 0 {
			bramX = next
			next++
		}
		if d.DSP > 0 {
			dspX = next
			next++
		}
		clbStart = next
	case DedicatedRight:
		next := width - 1
		if d.BRAM > 0 {
			bramX = next
			next--
		}
		if d.DSP > 0 {
			dspX = next
			next--
		}
		clbStart = 0
	default:
		return nil, fmt.Errorf("module: invalid side %d", side)
	}

	tiles := make([]Tile, 0, d.Total())
	stack := func(x, n int, k fabric.Kind) {
		for y := 0; y < n; y++ {
			tiles = append(tiles, Tile{At: grid.Pt(x, y), Kind: k})
		}
	}
	if bramX >= 0 {
		stack(bramX, d.BRAM, fabric.BRAM)
	}
	if dspX >= 0 {
		stack(dspX, d.DSP, fabric.DSP)
	}
	if d.CLB > 0 {
		base := d.CLB / clbCols
		extra := d.CLB % clbCols
		for i := 0; i < clbCols; i++ {
			n := base
			if i < extra {
				n++
			}
			stack(clbStart+i, n, fabric.CLB)
		}
	}
	return NewShape(tiles)
}

// BalancedWidth returns a bounding-box width giving a roughly square
// layout for demand d: the dedicated columns plus enough CLB columns
// that column height ≈ width.
func BalancedWidth(d Demand) int {
	dedicated := 0
	if d.BRAM > 0 {
		dedicated++
	}
	if d.DSP > 0 {
		dedicated++
	}
	if d.CLB == 0 {
		if dedicated == 0 {
			return 1
		}
		return dedicated
	}
	clbCols := int(math.Round(math.Sqrt(float64(d.CLB))))
	if clbCols < 1 {
		clbCols = 1
	}
	return clbCols + dedicated
}

// Package netlist models the front end the paper's flow starts from:
// partial modules specified as unplaced, unrouted netlists. A netlist is
// a bag of technology-mapped cells (LUTs, flip-flops, block RAMs, DSP
// slices) connected by nets; packing estimates the tile demand the
// netlist needs on the fabric, from which design alternatives are
// synthesised. The placer itself never inspects the netlist — exactly as
// in the paper, where only the module bounding shapes reach the
// constraint model.
package netlist

import (
	"fmt"

	"repro/internal/module"
)

// CellKind is a technology-mapped primitive type.
type CellKind uint8

// Cell kinds.
const (
	LUT CellKind = iota
	FF
	BRAMCell
	DSPCell
	numCellKinds
)

var cellKindNames = [numCellKinds]string{"LUT", "FF", "BRAM", "DSP"}

// String returns the canonical name.
func (k CellKind) String() string {
	if k < numCellKinds {
		return cellKindNames[k]
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Cell is one primitive instance.
type Cell struct {
	Name string
	Kind CellKind
}

// Net connects two or more cells (by name).
type Net struct {
	Name string
	Pins []string
}

// Netlist is a named set of cells and nets.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net
}

// Validate checks structural sanity: non-empty name and cells, unique
// cell and net names, every pin referencing a cell, nets with at least
// two pins.
func (n *Netlist) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("netlist: empty name")
	}
	if len(n.Cells) == 0 {
		return fmt.Errorf("netlist %s: no cells", n.Name)
	}
	cells := make(map[string]bool, len(n.Cells))
	for _, c := range n.Cells {
		if c.Name == "" {
			return fmt.Errorf("netlist %s: unnamed cell", n.Name)
		}
		if c.Kind >= numCellKinds {
			return fmt.Errorf("netlist %s: cell %s has invalid kind", n.Name, c.Name)
		}
		if cells[c.Name] {
			return fmt.Errorf("netlist %s: duplicate cell %s", n.Name, c.Name)
		}
		cells[c.Name] = true
	}
	nets := make(map[string]bool, len(n.Nets))
	for _, net := range n.Nets {
		if net.Name == "" {
			return fmt.Errorf("netlist %s: unnamed net", n.Name)
		}
		if nets[net.Name] {
			return fmt.Errorf("netlist %s: duplicate net %s", n.Name, net.Name)
		}
		nets[net.Name] = true
		if len(net.Pins) < 2 {
			return fmt.Errorf("netlist %s: net %s has %d pins, need >= 2", n.Name, net.Name, len(net.Pins))
		}
		for _, p := range net.Pins {
			if !cells[p] {
				return fmt.Errorf("netlist %s: net %s references unknown cell %s", n.Name, net.Name, p)
			}
		}
	}
	return nil
}

// Count returns the number of cells of kind k.
func (n *Netlist) Count(k CellKind) int {
	c := 0
	for _, cell := range n.Cells {
		if cell.Kind == k {
			c++
		}
	}
	return c
}

// AvgFanout returns the mean pins-per-net (0 for netless designs).
func (n *Netlist) AvgFanout() float64 {
	if len(n.Nets) == 0 {
		return 0
	}
	pins := 0
	for _, net := range n.Nets {
		pins += len(net.Pins)
	}
	return float64(pins) / float64(len(n.Nets))
}

// PackingTarget describes the fabric's logic capacity per CLB tile.
type PackingTarget struct {
	// LUTsPerCLB and FFsPerCLB are the LUT and flip-flop capacity of
	// one CLB tile.
	LUTsPerCLB int
	FFsPerCLB  int
}

// DefaultPackingTarget mirrors a Virtex-class CLB: two slices of four
// LUT/FF pairs each.
func DefaultPackingTarget() PackingTarget {
	return PackingTarget{LUTsPerCLB: 8, FFsPerCLB: 8}
}

// Pack estimates the tile demand of a netlist: CLBs sized by the binding
// resource (LUTs or FFs), plus one dedicated tile per BRAM/DSP cell.
func Pack(n *Netlist, t PackingTarget) (module.Demand, error) {
	if err := n.Validate(); err != nil {
		return module.Demand{}, err
	}
	if t.LUTsPerCLB <= 0 || t.FFsPerCLB <= 0 {
		return module.Demand{}, fmt.Errorf("netlist: invalid packing target %+v", t)
	}
	clbByLUT := ceilDiv(n.Count(LUT), t.LUTsPerCLB)
	clbByFF := ceilDiv(n.Count(FF), t.FFsPerCLB)
	d := module.Demand{
		CLB:  maxInt(clbByLUT, clbByFF),
		BRAM: n.Count(BRAMCell),
		DSP:  n.Count(DSPCell),
	}
	if d.Total() == 0 {
		return module.Demand{}, fmt.Errorf("netlist %s: packs to zero tiles", n.Name)
	}
	return d, nil
}

// ToModule packs the netlist and synthesises a module with design
// alternatives for its demand.
func ToModule(n *Netlist, t PackingTarget, opts module.AlternativeOptions) (*module.Module, error) {
	d, err := Pack(n, t)
	if err != nil {
		return nil, err
	}
	return module.GenerateAlternatives(n.Name, d, opts)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

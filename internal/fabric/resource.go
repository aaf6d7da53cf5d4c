// Package fabric models heterogeneous FPGA devices at tile granularity:
// resource kinds, column-structured synthetic device families patterned
// after Xilinx Virtex-style fabrics, static-region masking, reconfigurable
// partial regions, and a configuration-frame model for reconfiguration
// cost accounting.
//
// The placement paper this repository reproduces (Wold/Koch/Torresen,
// IPPS 2011) evaluates on a tile model of a real-world heterogeneous
// FPGA. The package substitutes a synthetic but column-accurate fabric:
// the placer only observes the (x, y) -> resource-kind map, so a grid
// with realistic column structure exercises exactly the same constraint
// behaviour as a vendor device description.
package fabric

import "fmt"

// Kind identifies the physical resource implemented by one tile.
type Kind uint8

// Resource kinds. Static marks tiles claimed by the static (non
// reconfigurable) design; such tiles can never host module tiles. Clock
// marks clock-management columns, which interrupt otherwise regular
// resource columns on modern devices and likewise accept no module
// logic.
const (
	// CLB is general configurable logic (lookup tables + flip-flops).
	CLB Kind = iota
	// BRAM is embedded block memory.
	BRAM
	// DSP is a dedicated multiplier / DSP slice.
	DSP
	// IOB is an input/output block at the device periphery.
	IOB
	// Clock is clock distribution/management resource.
	Clock
	// Static marks area allocated to the static design ("not
	// available" in the paper's formulation).
	Static
	numKinds
)

var kindNames = [numKinds]string{"CLB", "BRAM", "DSP", "IOB", "CLK", "STATIC"}

var kindRunes = [numKinds]byte{'c', 'b', 'd', 'i', 'k', '#'}

// String returns the conventional short name of k.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Rune returns a one-byte glyph for floorplan rendering.
func (k Kind) Rune() byte {
	if k < numKinds {
		return kindRunes[k]
	}
	return '?'
}

// Valid reports whether k names a defined resource kind.
func (k Kind) Valid() bool { return k < numKinds }

// Placeable reports whether module tiles may occupy a tile of kind k.
// IOB, Clock and Static tiles never host module logic: I/O and clocking
// are fixed-function, and static tiles belong to the host design.
func (k Kind) Placeable() bool {
	switch k {
	case CLB, BRAM, DSP:
		return true
	}
	return false
}

// ParseKind converts a short name (as produced by String, case
// sensitive) back to a Kind.
func ParseKind(s string) (Kind, error) {
	if k, ok := LookupKind([]byte(s)); ok {
		return k, nil
	}
	return 0, fmt.Errorf("fabric: unknown resource kind %q", s)
}

// LookupKind is ParseKind for a name held in bytes, without an error
// value: it reports false for a name no Kind has.
func LookupKind(name []byte) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if string(name) == kindNames[k] {
			return k, true
		}
	}
	return 0, false
}

// Histogram counts tiles by kind. It is indexable by Kind.
type Histogram [numKinds]int

// Add increments the count for k (ignoring invalid kinds).
func (h *Histogram) Add(k Kind) {
	if k < numKinds {
		h[k]++
	}
}

// Total returns the sum over all kinds.
func (h Histogram) Total() int {
	n := 0
	for _, c := range h {
		n += c
	}
	return n
}

// Placeable returns the number of counted tiles with a placeable kind.
func (h Histogram) Placeable() int {
	return h[CLB] + h[BRAM] + h[DSP]
}

// String renders non-zero counts as "CLB:120 BRAM:8 ...".
func (h Histogram) String() string {
	s := ""
	for k := Kind(0); k < numKinds; k++ {
		if h[k] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", k, h[k])
	}
	if s == "" {
		return "empty"
	}
	return s
}

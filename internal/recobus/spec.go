// Package recobus is the design-flow substrate the paper's placer plugs
// into: it stands in for the ReCoBus-Builder tool chain. It provides the
// textual partial-region description and module specification formats
// consumed by the placer front end (Figure 2 of the paper), the
// bus-attachment constraint of ReCoBus-style on-FPGA communication, and
// a bitstream-assembly simulation that turns placements into per-module
// configuration bitstreams with reconfiguration-time estimates.
package recobus

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// RegionSpec is the parsed partial-region description: a column
// structured fabric, static-area carve-outs and bus rows.
type RegionSpec struct {
	Fabric  fabric.Spec
	Statics []grid.Rect
	BusRows []int
}

// ParseRegion reads a partial-region description. Format (one directive
// per line, '#' comments):
//
//	region <name> <width> <height>
//	bramcols <x> [<x>...]
//	dspcols <x> [<x>...]
//	clockcols <x> [<x>...]
//	clockrows <period>
//	iobring
//	static <x> <y> <w> <h>
//	bus <row> [<row>...]
func ParseRegion(r io.Reader) (*RegionSpec, error) {
	spec := &RegionSpec{}
	sawRegion := false
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields, err := specFields(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("recobus: region line %d: %w", lineNo, err)
		}
		if len(fields) == 0 {
			continue
		}
		args := fields[1:]
		switch fields[0] {
		case "region":
			if len(args) != 3 {
				return nil, fmt.Errorf("recobus: region line %d: want 'region <name> <w> <h>'", lineNo)
			}
			w, err1 := strconv.Atoi(args[1])
			h, err2 := strconv.Atoi(args[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("recobus: region line %d: bad dimensions", lineNo)
			}
			spec.Fabric.Name, spec.Fabric.W, spec.Fabric.H = args[0], w, h
			sawRegion = true
		case "bramcols":
			if spec.Fabric.BRAMColumns, err = appendInts(spec.Fabric.BRAMColumns, args); err != nil {
				return nil, fmt.Errorf("recobus: region line %d: %w", lineNo, err)
			}
		case "dspcols":
			if spec.Fabric.DSPColumns, err = appendInts(spec.Fabric.DSPColumns, args); err != nil {
				return nil, fmt.Errorf("recobus: region line %d: %w", lineNo, err)
			}
		case "clockcols":
			if spec.Fabric.ClockColumns, err = appendInts(spec.Fabric.ClockColumns, args); err != nil {
				return nil, fmt.Errorf("recobus: region line %d: %w", lineNo, err)
			}
		case "clockrows":
			if len(args) != 1 {
				return nil, fmt.Errorf("recobus: region line %d: want 'clockrows <period>'", lineNo)
			}
			p, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("recobus: region line %d: bad period", lineNo)
			}
			spec.Fabric.ClockRowPeriod = p
		case "iobring":
			spec.Fabric.IOBRing = true
		case "static":
			if len(args) != 4 {
				return nil, fmt.Errorf("recobus: region line %d: want 'static <x> <y> <w> <h>'", lineNo)
			}
			vals, err := appendInts(nil, args)
			if err != nil {
				return nil, fmt.Errorf("recobus: region line %d: %w", lineNo, err)
			}
			spec.Statics = append(spec.Statics, grid.RectXYWH(vals[0], vals[1], vals[2], vals[3]))
		case "bus":
			if spec.BusRows, err = appendInts(spec.BusRows, args); err != nil {
				return nil, fmt.Errorf("recobus: region line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("recobus: region line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("recobus: reading region spec: %w", err)
	}
	if !sawRegion {
		return nil, fmt.Errorf("recobus: region spec missing 'region' directive")
	}
	sort.Ints(spec.BusRows)
	return spec, nil
}

// Build materialises the spec: the device (with static areas masked) and
// its full region.
func (s *RegionSpec) Build() (*fabric.Region, error) {
	dev, err := s.Fabric.Build()
	if err != nil {
		return nil, err
	}
	for _, r := range s.Statics {
		dev.MaskStatic(r)
	}
	for _, row := range s.BusRows {
		if row < 0 || row >= s.Fabric.H {
			return nil, fmt.Errorf("recobus: bus row %d outside region height %d", row, s.Fabric.H)
		}
	}
	return dev.FullRegion(), nil
}

// ParseModules reads a module specification. Format:
//
//	module <name>
//	  demand <clb> <bram> <dsp>        # synthesise alternatives, OR
//	  alternatives <k>                 # (with demand; default 4)
//	  shape                            # explicit layout (repeatable)
//	    tile <x> <y> <KIND>
//	    rect <x> <y> <w> <h> <KIND>
//	  end
//
// A module uses either demand-based synthesis or explicit shapes, not
// both.
func ParseModules(r io.Reader) ([]*module.Module, error) {
	var mods []*module.Module

	var name string
	var demand *module.Demand
	alternatives := 0
	var shapes []*module.Shape
	var tiles []module.Tile
	inShape := false

	flush := func(lineNo int) error {
		if name == "" {
			return nil
		}
		if inShape {
			return fmt.Errorf("recobus: modules line %d: unterminated shape in %s", lineNo, name)
		}
		if demand != nil && len(shapes) > 0 {
			return fmt.Errorf("recobus: module %s mixes demand and explicit shapes", name)
		}
		var m *module.Module
		var err error
		switch {
		case demand != nil:
			m, err = module.GenerateAlternatives(name, *demand,
				module.AlternativeOptions{Count: alternatives})
		case len(shapes) > 0:
			m, err = module.NewModule(name, shapes...)
		default:
			err = fmt.Errorf("recobus: module %s has neither demand nor shapes", name)
		}
		if err != nil {
			return err
		}
		mods = append(mods, m)
		name, demand, alternatives, shapes = "", nil, 0, nil
		return nil
	}

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields, err := specFields(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("recobus: modules line %d: %w", lineNo, err)
		}
		if len(fields) == 0 {
			continue
		}
		args := fields[1:]
		switch fields[0] {
		case "module":
			if len(args) != 1 {
				return nil, fmt.Errorf("recobus: modules line %d: want 'module <name>'", lineNo)
			}
			if err := flush(lineNo); err != nil {
				return nil, err
			}
			name = args[0]
		case "demand":
			if name == "" {
				return nil, fmt.Errorf("recobus: modules line %d: demand outside module", lineNo)
			}
			vals, err := appendInts(nil, args)
			if err != nil || len(vals) != 3 {
				return nil, fmt.Errorf("recobus: modules line %d: want 'demand <clb> <bram> <dsp>'", lineNo)
			}
			demand = &module.Demand{CLB: vals[0], BRAM: vals[1], DSP: vals[2]}
		case "alternatives":
			if len(args) != 1 {
				return nil, fmt.Errorf("recobus: modules line %d: want 'alternatives <k>'", lineNo)
			}
			k, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("recobus: modules line %d: bad count", lineNo)
			}
			alternatives = k
		case "shape":
			if name == "" {
				return nil, fmt.Errorf("recobus: modules line %d: shape outside module", lineNo)
			}
			if inShape {
				return nil, fmt.Errorf("recobus: modules line %d: nested shape", lineNo)
			}
			inShape = true
			tiles = nil
		case "tile":
			if !inShape {
				return nil, fmt.Errorf("recobus: modules line %d: tile outside shape", lineNo)
			}
			if len(args) != 3 {
				return nil, fmt.Errorf("recobus: modules line %d: want 'tile <x> <y> <KIND>'", lineNo)
			}
			x, err1 := strconv.Atoi(args[0])
			y, err2 := strconv.Atoi(args[1])
			k, err3 := fabric.ParseKind(args[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("recobus: modules line %d: bad tile", lineNo)
			}
			tiles = append(tiles, module.Tile{At: grid.Pt(x, y), Kind: k})
		case "rect":
			if !inShape {
				return nil, fmt.Errorf("recobus: modules line %d: rect outside shape", lineNo)
			}
			if len(args) != 5 {
				return nil, fmt.Errorf("recobus: modules line %d: want 'rect <x> <y> <w> <h> <KIND>'", lineNo)
			}
			vals, err := appendInts(nil, args[:4])
			if err != nil {
				return nil, fmt.Errorf("recobus: modules line %d: bad rect", lineNo)
			}
			k, err := fabric.ParseKind(args[4])
			if err != nil {
				return nil, fmt.Errorf("recobus: modules line %d: %w", lineNo, err)
			}
			for _, p := range grid.RectXYWH(vals[0], vals[1], vals[2], vals[3]).Points() {
				tiles = append(tiles, module.Tile{At: p, Kind: k})
			}
		case "end":
			if !inShape {
				return nil, fmt.Errorf("recobus: modules line %d: end outside shape", lineNo)
			}
			inShape = false
			s, err := module.NewShape(tiles)
			if err != nil {
				return nil, fmt.Errorf("recobus: modules line %d: %w", lineNo, err)
			}
			shapes = append(shapes, s)
		default:
			return nil, fmt.Errorf("recobus: modules line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("recobus: reading module spec: %w", err)
	}
	if err := flush(lineNo + 1); err != nil {
		return nil, err
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("recobus: module spec defines no modules")
	}
	return mods, nil
}

// WriteModules emits modules with explicit shapes in the format
// ParseModules reads (demand-synthesised modules are written shape by
// shape, so the round trip is layout-exact).
func WriteModules(w io.Writer, mods []*module.Module) error {
	var sb strings.Builder
	for _, m := range mods {
		fmt.Fprintf(&sb, "module %s\n", m.Name())
		for _, s := range m.Shapes() {
			sb.WriteString("shape\n")
			for _, t := range s.Tiles() {
				fmt.Fprintf(&sb, "tile %d %d %s\n", t.At.X, t.At.Y, t.Kind)
			}
			sb.WriteString("end\n")
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// specFields tokenises a spec line, stripping comments.
func specFields(line string) ([]string, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.Fields(line), nil
}

func appendInts(dst []int, args []string) ([]int, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("missing integer arguments")
	}
	for _, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", a)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

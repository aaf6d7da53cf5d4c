package fabric

import (
	"fmt"
	"sort"
)

// catalog holds the predefined synthetic device families. Each entry is
// a constructor so callers always receive a fresh, unmasked device.
var catalog = map[string]func() *Device{
	// A small homogeneous-era part: logic only.
	"spartan-like-24x16": func() *Device { return Homogeneous(24, 16) },
	// Previous generation: dedicated columns regularly aligned.
	"virtex2-like-48x32": func() *Device { return VirtexLike(48, 32) },
	// Current generation, the paper's evaluation target: pitch-12 BRAM
	// columns each with a clean CLB gap to the right, DSP columns and a
	// clock spine adjacent-left of BRAM columns, and clock tiles
	// interrupting dedicated columns every 16 rows.
	"virtex4-like-72x60": func() *Device {
		spec := Spec{
			Name:           "virtex4-like-72x60",
			W:              72,
			H:              60,
			BRAMColumns:    []int{6, 18, 30, 42, 54, 66},
			DSPColumns:     []int{17, 53},
			ClockColumns:   []int{29},
			ClockRowPeriod: 16,
		}
		return spec.MustBuild()
	},
	// A large current-generation part with irregular column spread
	// (fixed seed: the catalog is deterministic).
	"virtex5-like-96x80": func() *Device { return IrregularVirtexLike(96, 80, 5) },
}

// Catalog returns the names of the predefined devices, sorted.
func Catalog() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckName reports, with ByName's error, whether name is a predefined
// device, without building it.
func CheckName(name string) error {
	if _, ok := catalog[name]; !ok {
		return fmt.Errorf("fabric: unknown device %q (catalog: %v)", name, Catalog())
	}
	return nil
}

// ByName builds a fresh instance of a predefined device.
func ByName(name string) (*Device, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return catalog[name](), nil
}

// Package workload generates the module sets of the paper's evaluation:
// batches of random modules with resource demands drawn from the ranges
// of Section V (20–100 CLBs, 0–4 embedded memory blocks), each
// represented by a configurable number of design alternatives. All
// generation is seeded and reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/module"
)

// GeneratorVersion identifies the batches Generate draws: a (Config,
// seed) pair yields the same modules, shapes and order for as long as
// the version stands. Caches keyed by a generator spec instead of its
// expanded modules include it, so bump it whenever Generate's output
// changes for any spec (TestGeneratorVersionPinned fails until then).
const GeneratorVersion = 1

// Config parameterises module-batch generation. The zero value is
// completed by Defaults to the paper's Table-I workload.
type Config struct {
	// NumModules is the batch size (paper: 30).
	NumModules int
	// CLBMin/CLBMax bound the CLB demand (paper: 20..100).
	CLBMin, CLBMax int
	// BRAMMin/BRAMMax bound the embedded-memory demand (paper: 0..4).
	BRAMMin, BRAMMax int
	// NoBRAM suppresses embedded-memory demand entirely (a zero
	// BRAMMax alone is indistinguishable from "use the paper default").
	NoBRAM bool
	// DSPMax bounds the optional multiplier demand (paper workload: 0).
	DSPMax int
	// Alternatives is the number of design alternatives per module
	// (paper: 4; 1 disables design alternatives).
	Alternatives int
	// NoRotation suppresses 180° rotations among the alternatives.
	NoRotation bool
}

// Defaults fills unset fields with the paper's Table-I parameters.
func (c Config) Defaults() Config {
	if c.NumModules == 0 {
		c.NumModules = 30
	}
	if c.CLBMax == 0 {
		c.CLBMin, c.CLBMax = 20, 100
	}
	if c.NoBRAM {
		c.BRAMMin, c.BRAMMax = 0, 0
	} else if c.BRAMMax == 0 && c.BRAMMin == 0 {
		c.BRAMMax = 4
	}
	if c.Alternatives == 0 {
		c.Alternatives = 4
	}
	return c
}

// Validate reports the first inconsistency in the config.
func (c Config) Validate() error {
	if c.NumModules < 1 {
		return fmt.Errorf("workload: NumModules %d < 1", c.NumModules)
	}
	if c.CLBMin < 0 || c.CLBMax < c.CLBMin {
		return fmt.Errorf("workload: bad CLB range [%d,%d]", c.CLBMin, c.CLBMax)
	}
	if c.BRAMMin < 0 || c.BRAMMax < c.BRAMMin {
		return fmt.Errorf("workload: bad BRAM range [%d,%d]", c.BRAMMin, c.BRAMMax)
	}
	if c.DSPMax < 0 {
		return fmt.Errorf("workload: negative DSPMax")
	}
	if c.Alternatives < 1 {
		return fmt.Errorf("workload: Alternatives %d < 1", c.Alternatives)
	}
	if c.CLBMax == 0 && c.BRAMMax == 0 && c.DSPMax == 0 {
		return fmt.Errorf("workload: all demands zero")
	}
	return nil
}

// Generate draws a module batch using rng. Module names are m00, m01, …
// so batches are easy to cross-reference in rendered floorplans.
func Generate(cfg Config, rng *rand.Rand) ([]*module.Module, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mods := make([]*module.Module, 0, cfg.NumModules)
	for i := 0; i < cfg.NumModules; i++ {
		d := module.Demand{
			CLB:  randIn(rng, cfg.CLBMin, cfg.CLBMax),
			BRAM: randIn(rng, cfg.BRAMMin, cfg.BRAMMax),
		}
		if cfg.DSPMax > 0 {
			d.DSP = randIn(rng, 0, cfg.DSPMax)
		}
		m, err := module.GenerateAlternatives(
			fmt.Sprintf("m%02d", i),
			d,
			module.AlternativeOptions{Count: cfg.Alternatives, NoRotation: cfg.NoRotation},
		)
		if err != nil {
			return nil, fmt.Errorf("workload: module %d: %w", i, err)
		}
		mods = append(mods, m)
	}
	return mods, nil
}

// MustGenerate is Generate panicking on error, for fixed configs.
func MustGenerate(cfg Config, rng *rand.Rand) []*module.Module {
	mods, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return mods
}

// FirstShapesOnly maps a batch to its no-design-alternatives variant:
// every module restricted to its primary layout. The originals are not
// modified.
func FirstShapesOnly(mods []*module.Module) []*module.Module {
	out := make([]*module.Module, len(mods))
	for i, m := range mods {
		out[i] = m.FirstShapeOnly()
	}
	return out
}

func randIn(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

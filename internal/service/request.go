package service

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// PlaceRequest is the wire form of POST /v1/place. The modules are
// given either explicitly (Modules: shapes as tile lists) or as a
// seeded generator spec (Generate, the paper's workload model) —
// exactly one of the two. Both forms are expanded to the same
// canonical instance, so a generated batch and its explicit spelling
// share one cache entry; each is answered in its own module and shape
// order.
type PlaceRequest struct {
	// Fabric names a catalog device (GET /v1/fabrics lists them).
	Fabric string `json:"fabric"`
	// Region optionally windows the device; omitted means the full
	// fabric.
	Region *RectSpec `json:"region,omitempty"`
	// Modules lists the units to place with explicit design
	// alternatives.
	Modules []ModuleSpec `json:"modules,omitempty"`
	// Generate draws the module batch from the paper's seeded workload
	// model instead of listing shapes explicitly.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Options tunes the solver; zero fields take the daemon defaults.
	Options OptionsSpec `json:"options"`
}

// RectSpec is a rectangle in region coordinates.
type RectSpec struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

// ModuleSpec is one module: a name plus at least one shape.
type ModuleSpec struct {
	Name   string      `json:"name"`
	Shapes []ShapeSpec `json:"shapes"`
}

// ShapeSpec is one design alternative as a tile list.
type ShapeSpec struct {
	Tiles []TileSpec `json:"tiles"`
}

// TileSpec is one tile: relative coordinates plus the resource kind
// ("CLB", "BRAM", "DSP").
type TileSpec struct {
	X    int    `json:"x"`
	Y    int    `json:"y"`
	Kind string `json:"kind"`
}

// GenerateSpec mirrors workload.Config plus the seed.
type GenerateSpec struct {
	Seed         int64 `json:"seed"`
	NumModules   int   `json:"numModules,omitempty"`
	CLBMin       int   `json:"clbMin,omitempty"`
	CLBMax       int   `json:"clbMax,omitempty"`
	BRAMMin      int   `json:"bramMin,omitempty"`
	BRAMMax      int   `json:"bramMax,omitempty"`
	NoBRAM       bool  `json:"noBram,omitempty"`
	DSPMax       int   `json:"dspMax,omitempty"`
	Alternatives int   `json:"alternatives,omitempty"`
	NoRotation   bool  `json:"noRotation,omitempty"`
}

// OptionsSpec is the wire form of core.RequestOptions.
type OptionsSpec struct {
	TimeoutMs         int64  `json:"timeoutMs,omitempty"`
	StallNodes        int64  `json:"stallNodes,omitempty"`
	Strategy          string `json:"strategy,omitempty"`
	ValueOrder        string `json:"valueOrder,omitempty"`
	FirstSolutionOnly bool   `json:"firstSolutionOnly,omitempty"`
	Workers           int    `json:"workers,omitempty"`
	BusRows           []int  `json:"busRows,omitempty"`
	StrongPropagation bool   `json:"strongPropagation,omitempty"`
	Presolve          string `json:"presolve,omitempty"`
}

// defaultStallNodes is the convergence criterion substituted when a
// request sets none: the experiments' default.
const defaultStallNodes = 2000

// maxRequestBytes bounds the request body; a 30-module batch with four
// alternatives of ~100 tiles each is well under 1 MiB.
const maxRequestBytes = 8 << 20

// DecodeRequest parses a wire request body and expands it to the
// canonical domain form with the daemon defaults of cfg applied
// (cfg's zero fields take the documented Config defaults). All
// failures are client errors (HTTP 400).
func DecodeRequest(body io.Reader, cfg Config) (*canon.Request, error) {
	r := read(body, -1)
	d, err := r.place(cfg.withDefaults())
	r.release()
	if err != nil {
		return nil, err
	}
	return d.expand()
}

// decoded is a validated wire request with the daemon's option
// defaults applied and its modules not yet expanded. The defaults are
// applied before the canonical digest is taken, so an omitted option
// and its explicit default share a cache entry.
type decoded struct {
	wire PlaceRequest // everything but Modules, which the pass puts in mods
	mods []wireModule
	req  canon.Request // everything but Modules
}

// place decodes and validates the place request r holds. cfg must
// already carry its defaults.
func (r *reader) place(cfg Config) (*decoded, error) {
	d := &decoded{}
	if err := r.decode(d); err != nil {
		return nil, err
	}
	if err := d.validate(len(d.mods) > 0, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// validate checks the parsed wire request, whose module list is
// non-empty when hasModules, and fills d.req.
func (d *decoded) validate(hasModules bool, cfg Config) error {
	wire := &d.wire
	if wire.Fabric == "" {
		return fmt.Errorf("missing fabric")
	}
	if err := fabric.CheckName(wire.Fabric); err != nil {
		return err
	}
	switch {
	case wire.Generate != nil && hasModules:
		return fmt.Errorf("modules and generate are mutually exclusive")
	case wire.Generate == nil && !hasModules:
		return fmt.Errorf("request needs modules or generate")
	}
	opts, err := wire.Options.toRequestOptions(cfg)
	if err != nil {
		return err
	}
	d.req = canon.Request{Fabric: wire.Fabric, Options: opts}
	if wire.Region != nil {
		if wire.Region.W <= 0 || wire.Region.H <= 0 {
			return fmt.Errorf("region %dx%d must have positive size", wire.Region.W, wire.Region.H)
		}
		d.req.Region = grid.RectXYWH(wire.Region.X, wire.Region.Y, wire.Region.W, wire.Region.H)
	}
	return nil
}

// expand builds the request's modules: the seeded batch of a generate
// request, or the explicit module list in the order it was given.
func (d *decoded) expand() (*canon.Request, error) {
	req := d.req
	if g := d.wire.Generate; g != nil {
		mods, err := workload.Generate(g.config(), rand.New(rand.NewSource(g.Seed)))
		if err != nil {
			return nil, err
		}
		req.Modules = mods
		return &req, nil
	}
	req.Modules = make([]*module.Module, len(d.mods))
	for i := range d.mods {
		m, err := d.mods[i].build()
		if err != nil {
			return nil, err
		}
		req.Modules[i] = m
	}
	return &req, nil
}

func (g *GenerateSpec) config() workload.Config {
	return workload.Config{
		NumModules: g.NumModules,
		CLBMin:     g.CLBMin, CLBMax: g.CLBMax,
		BRAMMin: g.BRAMMin, BRAMMax: g.BRAMMax,
		NoBRAM:       g.NoBRAM,
		DSPMax:       g.DSPMax,
		Alternatives: g.Alternatives,
		NoRotation:   g.NoRotation,
	}
}

func (o *OptionsSpec) toRequestOptions(cfg Config) (core.RequestOptions, error) {
	out := core.RequestOptions{
		Timeout:           time.Duration(o.TimeoutMs) * time.Millisecond,
		StallNodes:        o.StallNodes,
		FirstSolutionOnly: o.FirstSolutionOnly,
		Workers:           o.Workers,
		BusRows:           o.BusRows,
		StrongPropagation: o.StrongPropagation,
	}
	if o.TimeoutMs < 0 {
		return out, fmt.Errorf("negative timeoutMs %d", o.TimeoutMs)
	}
	// An unbounded or over-long solve would pin a solver slot for
	// minutes; the daemon substitutes its default and caps at its
	// maximum.
	if out.Timeout == 0 {
		out.Timeout = cfg.DefaultTimeout
	}
	if out.Timeout > cfg.MaxTimeout {
		out.Timeout = cfg.MaxTimeout
	}
	if out.StallNodes == 0 {
		out.StallNodes = defaultStallNodes
	}
	// Each search worker is a goroutine holding its own build of the
	// model, so a request may ask for at most as many as the daemon has
	// CPUs. 1
	// worker is the sequential search that 0 also selects; folding it
	// keeps the two requests on one cache entry.
	if out.Workers > runtime.GOMAXPROCS(0) {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Workers == 1 {
		out.Workers = 0
	}
	if o.Strategy != "" {
		s, err := core.ParseStrategy(o.Strategy)
		if err != nil {
			return out, err
		}
		out.Strategy = s
	}
	if o.ValueOrder != "" {
		v, err := core.ParseValueOrder(o.ValueOrder)
		if err != nil {
			return out, err
		}
		out.ValueOrder = v
	}
	if o.Presolve != "" {
		p, err := core.ParsePresolve(o.Presolve)
		if err != nil {
			return out, err
		}
		out.Presolve = p
	}
	if err := out.Validate(); err != nil {
		return out, err
	}
	return out, nil
}

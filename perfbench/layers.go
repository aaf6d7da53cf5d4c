package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// serviceConfig is the configuration the benchmark runs the service
// with, minus the registry and tracer; the direct layer calls decode
// with the same defaults.
func serviceConfig() service.Config {
	return service.Config{DefaultTimeout: solveTimeout, MaxTimeout: solveTimeout}
}

// decodeTimes splits one DecodeRequest call into its layers, measured
// from outside: the whole call, the workload.Generate expansion of a
// generate-form body, and the module.NewShape/NewModule construction of
// an explicit body. The service's own decode is what remains.
type decodeTimes struct {
	decode, generate, build, digest time.Duration
}

func (d decodeTimes) self() time.Duration { return d.decode - d.generate - d.build }

func (d *decodeTimes) add(o decodeTimes) {
	d.decode += o.decode
	d.generate += o.generate
	d.build += o.build
	d.digest += o.digest
}

// measureDecode times the decode path of one request body through each
// layer's public functions.
func measureDecode(body []byte) (decodeTimes, error) {
	var t decodeTimes
	start := time.Now()
	creq, err := service.DecodeRequest(bytes.NewReader(body), serviceConfig())
	t.decode = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("decode: %w", err)
	}
	start = time.Now()
	if _, err := creq.Digest(); err != nil {
		return t, fmt.Errorf("digest: %w", err)
	}
	t.digest = time.Since(start)

	var wire service.PlaceRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return t, err
	}
	if g := wire.Generate; g != nil {
		start = time.Now()
		_, err := workload.Generate(workload.Config{
			NumModules: g.NumModules, CLBMin: g.CLBMin, CLBMax: g.CLBMax,
			BRAMMin: g.BRAMMin, BRAMMax: g.BRAMMax, NoBRAM: g.NoBRAM, DSPMax: g.DSPMax,
			Alternatives: g.Alternatives, NoRotation: g.NoRotation,
		}, rand.New(rand.NewSource(g.Seed)))
		t.generate = time.Since(start)
		if err != nil {
			return t, err
		}
	}
	for _, ms := range wire.Modules {
		start = time.Now()
		_, err := buildModule(ms)
		t.build += time.Since(start)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// buildModule constructs a module from its wire tiles with the module
// package's constructors, as the service does for explicit requests.
func buildModule(ms service.ModuleSpec) (*module.Module, error) {
	shapes := make([]*module.Shape, len(ms.Shapes))
	for i, ss := range ms.Shapes {
		tiles := make([]module.Tile, len(ss.Tiles))
		for j, ts := range ss.Tiles {
			kind, err := fabric.ParseKind(ts.Kind)
			if err != nil {
				return nil, err
			}
			tiles[j] = module.Tile{At: grid.Pt(ts.X, ts.Y), Kind: kind}
		}
		s, err := module.NewShape(tiles)
		if err != nil {
			return nil, err
		}
		shapes[i] = s
	}
	return module.NewModule(ms.Name, shapes...)
}

// validAnchors times core.ValidAnchors over every shape of the modules
// and counts the anchors it finds.
func validAnchors(region *fabric.Region, mods []*module.Module) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, m := range mods {
		for _, s := range m.Shapes() {
			start := time.Now()
			b := core.ValidAnchors(region, s)
			d += time.Since(start)
			n += b.Count()
		}
	}
	return d, n
}

// propagators are the geost propagators whose run counts the traced run
// reports, as geost.runs.<name>.
var propagators = []string{"non-overlap", "top-link", "height-bound", "compulsory"}

func propagatorRuns(reg *obs.Registry, name string) int64 {
	return reg.Counter(`solver_propagator_runs_total{propagator="geost.` + name + `"}`).Value()
}

// histSeconds reads the running total of a timer the program exports.
func histSeconds(reg *obs.Registry, name string) float64 {
	return reg.Histogram(name + "_seconds").Sum()
}

// phaseTotals are the solver phase timers the placer exports, summed
// over every solve a registry saw, in milliseconds.
type phaseTotals struct {
	modelBuild, presolve, search, propagation, proof, queueWait float64
}

func readPhases(reg *obs.Registry) phaseTotals {
	return phaseTotals{
		modelBuild:  1e3 * histSeconds(reg, "phase_model_build"),
		presolve:    1e3 * histSeconds(reg, "phase_presolve"),
		search:      1e3 * histSeconds(reg, "phase_search"),
		propagation: 1e3 * histSeconds(reg, "phase_propagation"),
		proof:       1e3 * histSeconds(reg, "phase_proof"),
		queueWait:   1e3 * histSeconds(reg, "service_queue_wait"),
	}
}

// unaccountedPct is the share of the traced end-to-end time that the
// summed per-layer self times do not explain.
func unaccountedPct(e2eMs float64, selfMs ...float64) float64 {
	if e2eMs <= 0 {
		return 0
	}
	return 100 * (e2eMs - sum(selfMs)) / e2eMs
}

// overheadPct compares the same inputs served with and without request
// tracing.
func overheadPct(tracedMs, untracedMs float64) float64 {
	if untracedMs <= 0 {
		return 0
	}
	return 100 * (tracedMs - untracedMs) / untracedMs
}

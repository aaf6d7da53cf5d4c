package service

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
)

// PlaceResponse is the wire form of a /v1/place result. The solve
// outcome is cached once per canonical instance, and every answer —
// the solving request's, a deduplicated waiter's, a cache hit's — is
// encoded from it in the requester's own module and shape order. A
// request listing its modules and shapes in the order of the request
// that solved the instance therefore gets a byte-identical body (the
// per-request hit/miss indicator travels in the X-Cache header
// instead). SolveMs is the original solve's wall time, not the
// serving time of this response.
type PlaceResponse struct {
	// Digest is the canonical instance digest (the cache key), hex.
	Digest string `json:"digest"`
	Fabric string `json:"fabric"`
	// Found reports whether a complete placement exists; an infeasible
	// instance is a valid, cacheable answer with Found=false.
	Found       bool    `json:"found"`
	Height      int     `json:"height"`
	Utilization float64 `json:"utilization"`
	Optimal     bool    `json:"optimal"`
	Stalled     bool    `json:"stalled"`
	Reason      string  `json:"reason"`
	Nodes       int64   `json:"nodes"`
	Backtracks  int64   `json:"backtracks"`
	SolveMs     float64 `json:"solveMs"`
	// Quality tags degraded answers: "approximate" when a baseline
	// heuristic placed the instance because the exact solve missed its
	// deadline or was shed. Omitted (empty) on exact answers, so exact
	// response bodies are byte-identical to the pre-degradation format.
	Quality string `json:"quality,omitempty"`
	// Placements lists one entry per placed module, in the order the
	// request listed its modules. Shape is an index into that module's
	// shapes as the request listed them (after dropping repeated
	// shapes), so it names the requester's own design alternative.
	Placements []PlacementSpec `json:"placements,omitempty"`
}

// PlacementSpec is one placed module: chosen design alternative and
// bounding box anchor/size in region coordinates.
type PlacementSpec struct {
	Module string `json:"module"`
	Shape  int    `json:"shape"`
	X      int    `json:"x"`
	Y      int    `json:"y"`
	W      int    `json:"w"`
	H      int    `json:"h"`
}

// errorResponse is the body of every non-2xx JSON reply.
type errorResponse struct {
	Error string `json:"error"`
}

// placed is a solve outcome in canonical terms, as the cache stores
// it: the answer's header fields, and per placed module its canonical
// module index, canonical shape index and box. Every answer is encoded
// from it through the requester's own canon.Order, so its shape
// indexes point into the requester's own shape lists.
type placed struct {
	head PlaceResponse // Placements unset
	mods []placedModule
}

type placedModule struct {
	module, shape int // canonical indexes
	x, y, w, h    int
}

// newPlaced re-indexes res, solved on k's request, in canonical terms
// through k's order. quality is QualityExact for solver results
// (encoded as the empty, omitted field) or QualityApproximate for
// degraded ones.
func newPlaced(k *keyed, res *core.Result, quality string) *placed {
	p := &placed{head: PlaceResponse{
		Digest:      k.digest.String(),
		Fabric:      k.creq.Fabric,
		Found:       res.Found,
		Height:      res.Height,
		Utilization: res.Utilization,
		Optimal:     res.Optimal,
		Stalled:     res.Stalled,
		Reason:      res.Reason.String(),
		Nodes:       res.Nodes,
		Backtracks:  res.Backtracks,
		SolveMs:     float64(res.Elapsed.Microseconds()) / 1e3,
	}}
	if quality != QualityExact {
		p.head.Quality = quality
	}
	if len(res.Placements) == 0 {
		return p
	}
	canonOf := make(map[string]int, len(k.order.Modules))
	for c, i := range k.order.Modules {
		canonOf[k.creq.Modules[i].Name()] = c
	}
	for _, pl := range res.Placements {
		c := canonOf[pl.Module.Name()]
		s := pl.Shape()
		p.mods = append(p.mods, placedModule{
			module: c,
			shape:  slices.Index(k.order.Shapes[c], pl.ShapeIndex),
			x:      pl.At.X,
			y:      pl.At.Y,
			w:      s.W(),
			h:      s.H(),
		})
	}
	return p
}

// encode renders p as the answer to k's request: placements in its
// module order, shape indexes into its shape lists.
func (p *placed) encode(k *keyed) ([]byte, error) {
	resp := p.head
	if len(p.mods) > 0 {
		byRequest := make([]PlacementSpec, len(k.creq.Modules))
		for _, m := range p.mods {
			i := k.order.Modules[m.module]
			byRequest[i] = PlacementSpec{
				Module: k.creq.Modules[i].Name(),
				Shape:  k.order.Shapes[m.module][m.shape],
				X:      m.x,
				Y:      m.y,
				W:      m.w,
				H:      m.h,
			}
		}
		for _, ps := range byRequest {
			if ps.Module != "" {
				resp.Placements = append(resp.Placements, ps)
			}
		}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("service: encoding response: %w", err)
	}
	return append(body, '\n'), nil
}

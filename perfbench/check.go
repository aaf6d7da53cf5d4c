package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/service"
)

// placeAnswer is a /v1/place answer that passed checkPlace.
type placeAnswer struct {
	resp   service.PlaceResponse
	frames int // configuration frames to load every placed module
}

// checkPlace revalidates a /v1/place answer against the region the
// request was solved on: every module of the decoded request placed
// once, on a shape it offered, in bounds, on matching resources, without
// overlap, at the reported height and utilization.
func checkPlace(region *fabric.Region, creq *canon.Request, body []byte) (*placeAnswer, error) {
	var resp service.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("answer does not decode: %w", err)
	}
	if !resp.Found {
		return nil, fmt.Errorf("no placement found")
	}
	byName := make(map[string]*module.Module, len(creq.Modules))
	for _, m := range creq.Modules {
		byName[m.Name()] = m
	}
	res := &core.Result{Found: true, Height: resp.Height, Utilization: resp.Utilization}
	fm := fabric.DefaultFrameModel()
	ans := &placeAnswer{resp: resp}
	for _, p := range resp.Placements {
		m := byName[p.Module]
		if m == nil {
			return nil, fmt.Errorf("placement names unknown or repeated module %q", p.Module)
		}
		delete(byName, p.Module)
		if p.Shape < 0 || p.Shape >= m.NumShapes() {
			return nil, fmt.Errorf("module %q uses shape %d of %d", p.Module, p.Shape, m.NumShapes())
		}
		if s := m.Shape(p.Shape); s.W() != p.W || s.H() != p.H {
			return nil, fmt.Errorf("module %q reports a %dx%d box for a %dx%d shape", p.Module, p.W, p.H, s.W(), s.H())
		}
		res.Placements = append(res.Placements, core.Placement{Module: m, ShapeIndex: p.Shape, At: grid.Pt(p.X, p.Y)})
		ans.frames += fm.FrameCount(region, grid.RectXYWH(p.X, p.Y, p.W, p.H))
	}
	if len(byName) > 0 {
		return nil, fmt.Errorf("%d modules left unplaced", len(byName))
	}
	if err := res.Validate(region); err != nil {
		return nil, err
	}
	return ans, nil
}

// decodedRequest decodes a request body the way the service does. The
// service solves the modules in this order, and answers index shapes in
// it.
func decodedRequest(body []byte) (*canon.Request, error) {
	return service.DecodeRequest(bytes.NewReader(body), serviceConfig())
}

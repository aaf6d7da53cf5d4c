package service

import (
	"fmt"
	"net/http"

	"repro/internal/baseline"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Placement quality tags: every 200 placement response carries one in
// the X-Placement-Quality header, and approximate responses repeat it
// in the body's quality field (omitted on exact responses, keeping
// exact bodies byte-identical to the pre-degradation wire format).
const (
	// QualityExact marks a placement produced by the constraint solver.
	QualityExact = "exact"
	// QualityApproximate marks a placement produced by a baseline
	// heuristic after the exact solve missed its deadline or was shed.
	QualityApproximate = "approximate"
)

// regionFor materialises the request's fabric region (the full device,
// or the requested window).
func regionFor(creq *canon.Request) (*fabric.Region, error) {
	dev, err := fabric.ByName(creq.Fabric)
	if err != nil {
		return nil, err
	}
	region := dev.FullRegion()
	if creq.Region != (grid.Rect{}) {
		region = dev.Region(creq.Region)
		if region.W() <= 0 || region.H() <= 0 {
			return nil, fmt.Errorf("region %v lies outside fabric %s", creq.Region, creq.Fabric)
		}
	}
	return region, nil
}

// serveDegraded is the graceful-degradation path: the exact solve
// missed its deadline or was shed by admission, so place the instance
// with the fast approximate heuristics instead of failing the request.
// It returns false — leaving the original error response to the caller
// — when the fallback cannot produce a valid placement either.
// Degraded bodies are never cached: the instance deserves an exact
// answer once capacity returns.
func (s *Server) serveDegraded(w http.ResponseWriter, tr *obs.Trace, out *placeOutcome, k *keyed) bool {
	sp := tr.StartSpan("degrade")
	res, err := s.fallback(k.creq)
	found := err == nil && res != nil && res.Found
	sp.SetAttrs(obs.Bool("found", found))
	if err != nil {
		sp.SetAttrs(obs.String("error", err.Error()))
	}
	s.end(sp)
	if !found {
		return false
	}
	body, err := newPlaced(k, res, QualityApproximate).encode(k)
	if err != nil {
		return false
	}
	s.degraded.Inc()
	out.status = http.StatusOK
	out.errText = ""
	out.quality = QualityApproximate
	writePlacement(w, body, k.digest, false, QualityApproximate)
	return true
}

// solveApproximate is the production fallback: the baseline heuristic
// placers over the same region and module set as the exact solve —
// bottom-left-decreasing first (the stronger packer), plain first-fit
// as the second chance (its input-order traversal can succeed where
// the sorted order wedges). A placement that fails the core validity
// checks is never served; milliseconds of heuristic work replace the
// multi-second exact search.
func (s *Server) solveApproximate(creq *canon.Request) (*core.Result, error) {
	region, err := regionFor(creq)
	if err != nil {
		return nil, err
	}
	var firstErr error
	for _, alg := range []baseline.Algorithm{baseline.BottomLeftDecreasing, baseline.FirstFit} {
		res, err := baseline.Place(region, creq.Modules, alg, baseline.Options{UseAlternatives: true})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !res.Found {
			continue
		}
		if err := res.Validate(region); err != nil {
			// A heuristic bug must surface as a failed degradation, not
			// an invalid 200.
			return nil, err
		}
		return res, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &core.Result{}, nil
}

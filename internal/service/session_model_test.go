package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/online"
	"repro/internal/workload"
)

// modelResident is one module the reference model believes resident.
type modelResident struct {
	mod   *module.Module
	shape int
	at    grid.Point
}

// sessionModel is the trivial reference the session API is checked
// against: the resident set and the occupancy it implies. Every answer
// the server gives is replayed onto it through online.ValidatePlacement,
// and the server's own residency must always equal it.
type sessionModel struct {
	region    *fabric.Region
	residents map[int64]modelResident
}

func (m *sessionModel) occupancy(skip int64) *grid.Bitmap {
	occ := grid.NewBitmap(m.region.W(), m.region.H())
	for id, r := range m.residents {
		if id != skip {
			occ.SetPoints(r.mod.Shape(r.shape).PointsAt(r.at), true)
		}
	}
	return occ
}

// admit replays one placement onto the model: the tiles must satisfy
// M_a, M_b and M_c against every other resident.
func (m *sessionModel) admit(id int64, mod *module.Module, shape int, at grid.Point) error {
	if _, err := online.ValidatePlacement(m.region, m.occupancy(id), mod, online.Placement{Shape: shape, At: at}); err != nil {
		return err
	}
	m.residents[id] = modelResident{mod: mod, shape: shape, at: at}
	return nil
}

// relocate replays a move schedule in order. Each move vacates its own
// site and must land on tiles free at its turn, so every intermediate
// layout is valid and no module is ever without a site.
func (m *sessionModel) relocate(moves []MoveSpec) error {
	for _, mv := range moves {
		r, ok := m.residents[mv.Task]
		if !ok {
			return fmt.Errorf("move names non-resident task %d", mv.Task)
		}
		if mv.Frames <= 0 || mv.ReconfigMs <= 0 {
			return fmt.Errorf("unpriced move %+v", mv)
		}
		if err := m.admit(mv.Task, r.mod, mv.Shape, grid.Pt(mv.X, mv.Y)); err != nil {
			return fmt.Errorf("move of %d: %w", mv.Task, err)
		}
	}
	return nil
}

// check compares the server's reported residency with the model.
func (m *sessionModel) check(st SessionStatsResponse) error {
	if st.Residents != len(m.residents) || len(st.Residency) != len(m.residents) {
		return fmt.Errorf("server has %d residents, model %d", st.Residents, len(m.residents))
	}
	for _, r := range st.Residency {
		want, ok := m.residents[r.Task]
		if !ok || r.Shape != want.shape || r.X != want.at.X || r.Y != want.at.Y {
			return fmt.Errorf("server resident %+v, model %+v (present %v)", r, want, ok)
		}
	}
	if occ := m.occupancy(-1).Count(); st.OccupiedTiles != occ {
		return fmt.Errorf("server occupies %d tiles, model %d", st.OccupiedTiles, occ)
	}
	return nil
}

// faulted reports whether status is an injected session fault: 503 for
// an injected error, 504 for an injected timeout. Faults fire before
// the handler touches session state, so the model stays unchanged.
func faulted(status int, cov *modelCoverage) bool {
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		cov.faults++
		return true
	}
	return false
}

// TestSessionModel runs seeded random create/place/release/defrag/stats
// /delete sequences over HTTP against the reference model, with and
// without injected session and defrag faults, on a heterogeneous window
// (BRAM and DSP columns) so resource matching is exercised. The server
// must agree with the model after every step, and every placement and
// relocation it reports must replay validly.
func TestSessionModel(t *testing.T) {
	const fab = "virtex2-like-48x32"
	dev, err := fabric.ByName(fab)
	if err != nil {
		t.Fatal(err)
	}
	window := grid.RectXYWH(0, 0, 16, 10)
	region := dev.Region(window)
	var total modelCoverage
	for _, tc := range []struct {
		name   string
		faults string
		seed   int64
	}{
		{"clean/1", "", 1},
		{"clean/2", "", 2},
		{"faults/3", "session:error:0.1,defrag:timeout:0.3", 3},
		{"faults/4", "session:timeout:0.1,defrag:error:0.3", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := faultinject.Parse(tc.faults, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			h := newTestServer(t, Config{Faults: inj}).Handler()
			rng := rand.New(rand.NewSource(tc.seed))
			cov := runSessionModel(t, h, rng, fab, window, region)
			t.Logf("%+v", cov)
			if tc.faults != "" && cov.faults == 0 {
				t.Error("no fault fired")
			}
			total.replanned += cov.replanned
			total.moves += cov.moves
		})
	}
	if !t.Failed() && (total.replanned == 0 || total.moves == 0) {
		t.Errorf("the sequences never replanned or moved a resident: %+v", total)
	}
}

// modelCoverage counts what a run exercised.
type modelCoverage struct{ placed, replanned, moves, released, refused, faults int }

func runSessionModel(t *testing.T, h http.Handler, rng *rand.Rand, fab string, window grid.Rect, region *fabric.Region) modelCoverage {
	var cov modelCoverage
	var (
		id     string
		model  *sessionModel
		nextID int64
	)
	managers := online.SessionManagers()
	decode := func(step int, rr *httptest.ResponseRecorder, v any) {
		t.Helper()
		if err := json.Unmarshal(rr.Body.Bytes(), v); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	residentIDs := func() []int64 {
		ids := make([]int64, 0, len(model.residents))
		for id := range model.residents {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}

	for step := 0; step < 300; step++ {
		if id == "" {
			body := fmt.Sprintf(`{"fabric":%q,"region":{"x":%d,"y":%d,"w":%d,"h":%d},"manager":%q,"useAlternatives":%v,"replan":{"stallNodes":200,"timeoutMs":5000}}`,
				fab, window.MinX, window.MinY, window.W(), window.H(), managers[rng.Intn(len(managers))], rng.Intn(2) == 0)
			rr := do(t, h, "POST", "/v1/sessions", body)
			switch {
			case rr.Code == http.StatusOK:
				var info SessionInfo
				decode(step, rr, &info)
				id, model = info.Session, &sessionModel{region: region, residents: map[int64]modelResident{}}
			case !faulted(rr.Code, &cov):
				t.Fatalf("step %d: create: status %d %s", step, rr.Code, rr.Body)
			}
			continue
		}

		switch op := rng.Intn(20); {
		case op < 10: // place a fresh module, or re-place a resident id
			mods, err := workload.Generate(workload.Config{NumModules: 1, CLBMin: 3, CLBMax: 14, BRAMMax: 1, Alternatives: 2}, rng)
			if err != nil {
				t.Fatal(err)
			}
			mod, task := mods[0], nextID
			if ids := residentIDs(); len(ids) > 0 && op == 0 {
				task = ids[rng.Intn(len(ids))]
			} else {
				nextID++
			}
			spec, err := json.Marshal(ModuleSpecFor(mod))
			if err != nil {
				t.Fatal(err)
			}
			resp, rr := sessionPlace(t, h, id, task, string(spec))
			_, resident := model.residents[task]
			switch {
			case faulted(rr.Code, &cov):
			case resident:
				if rr.Code != http.StatusConflict {
					t.Fatalf("step %d: re-placing resident %d: status %d", step, task, rr.Code)
				}
			case rr.Code != http.StatusOK:
				t.Fatalf("step %d: place: status %d %s", step, rr.Code, rr.Body)
			case resp.Placed:
				if err := model.relocate(resp.Moves); err != nil {
					t.Fatalf("step %d: place %d: %v", step, task, err)
				}
				if err := model.admit(task, mod, resp.Shape, grid.Pt(resp.X, resp.Y)); err != nil {
					t.Fatalf("step %d: place %d: %v", step, task, err)
				}
				cov.placed++
				cov.moves += len(resp.Moves)
				if resp.Replanned {
					cov.replanned++
				}
			case len(resp.Moves) > 0:
				t.Fatalf("step %d: rejected arrival %d moved residents: %+v", step, task, resp)
			}
		case op < 16: // release a resident, or an id that is not resident
			task := nextID + 1
			if ids := residentIDs(); len(ids) > 0 && op < 15 {
				task = ids[rng.Intn(len(ids))]
			}
			rr := do(t, h, "DELETE", fmt.Sprintf("/v1/sessions/%s/modules/%d", id, task), "")
			if faulted(rr.Code, &cov) {
				continue
			}
			var rel SessionReleaseResponse
			decode(step, rr, &rel)
			_, resident := model.residents[task]
			if rr.Code != http.StatusOK || rel.Released != resident {
				t.Fatalf("step %d: release %d: status %d %+v, model resident %v", step, task, rr.Code, rel, resident)
			}
			delete(model.residents, task)
			if rel.Released {
				cov.released++
			}
		case op < 19: // defragment
			rr := do(t, h, "POST", "/v1/sessions/"+id+"/defrag", "")
			if faulted(rr.Code, &cov) {
				continue
			}
			if rr.Code == http.StatusInternalServerError && strings.Contains(rr.Body.String(), "relocation cycle") {
				// A compaction whose moves cannot be ordered without a
				// staging site is refused and the layout kept as is.
				cov.refused++
				break
			}
			if rr.Code != http.StatusOK {
				t.Fatalf("step %d: defrag: status %d %s", step, rr.Code, rr.Body)
			}
			var df SessionDefragResponse
			decode(step, rr, &df)
			if err := model.relocate(df.Moves); err != nil {
				t.Fatalf("step %d: defrag: %v", step, err)
			}
			cov.moves += len(df.Moves)
		default: // delete the session; the next step opens a new one
			rr := do(t, h, "DELETE", "/v1/sessions/"+id, "")
			if faulted(rr.Code, &cov) {
				continue
			}
			if rr.Code != http.StatusOK {
				t.Fatalf("step %d: delete: status %d", step, rr.Code)
			}
			if rr := do(t, h, "GET", "/v1/sessions/"+id+"/stats", ""); rr.Code != http.StatusNotFound && !faulted(rr.Code, &cov) {
				t.Fatalf("step %d: deleted session answered %d", step, rr.Code)
			}
			id, model = "", nil
			continue
		}

		// After every step the server's residency must equal the model's.
		rr := do(t, h, "GET", "/v1/sessions/"+id+"/stats", "")
		if faulted(rr.Code, &cov) {
			continue
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("step %d: stats: status %d", step, rr.Code)
		}
		var st SessionStatsResponse
		decode(step, rr, &st)
		if err := model.check(st); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	return cov
}

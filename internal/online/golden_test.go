package online

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// simulateGolden pins every Stats field of Simulate for each manager of
// Managers() and for the CP-replan arms over three seeded streams. The
// values come from the simulator that kept its own occupancy and ran
// replans inside the manager; Simulate now drives State, and any drift
// in admission, release order, relocation, pricing or the utilization
// and fragmentation integrals shows up as a changed line.
var simulateGolden = map[string]string{
	"1/1d-slots":                    "offered=40 accepted=4 rejected=36 service=0.1 meanUtil=0.0642814371257485 peakUtil=0.09 meanFrag=0.38962365591397863 reconfig=403440 moves=0 horizon=167",
	"1/first-fit":                   "offered=40 accepted=32 rejected=8 service=0.8 meanUtil=0.18527310924369747 peakUtil=0.485 meanFrag=0.5938797067524861 reconfig=3771180 moves=0 horizon=238",
	"1/first-fit+alternatives":      "offered=40 accepted=38 rejected=2 service=0.95 meanUtil=0.22925992779783394 peakUtil=0.57 meanFrag=0.6249516704854646 reconfig=4936400 moves=0 horizon=277",
	"1/first-fit+cp-replan":         "offered=40 accepted=38 rejected=2 service=0.95 meanUtil=0.22925992779783394 peakUtil=0.57 meanFrag=0.6249516704854646 reconfig=4936400 moves=0 horizon=277",
	"1/first-fit+cp-replan/plain":   "offered=40 accepted=34 rejected=6 service=0.85 meanUtil=0.20119747899159665 peakUtil=0.485 meanFrag=0.5975208266869703 reconfig=4964280 moves=7 horizon=238",
	"1/mer-best-fit":                "offered=40 accepted=30 rejected=10 service=0.75 meanUtil=0.16624548736462094 peakUtil=0.425 meanFrag=0.5928323319508058 reconfig=3264420 moves=0 horizon=277",
	"1/mer-best-fit+alternatives":   "offered=40 accepted=36 rejected=4 service=0.9 meanUtil=0.21862815884476533 peakUtil=0.615 meanFrag=0.597295904951461 reconfig=4528860 moves=0 horizon=277",
	"1/occupied-space":              "offered=40 accepted=32 rejected=8 service=0.8 meanUtil=0.18527310924369747 peakUtil=0.485 meanFrag=0.5938797067524861 reconfig=3771180 moves=0 horizon=238",
	"1/occupied-space+alternatives": "offered=40 accepted=38 rejected=2 service=0.95 meanUtil=0.22925992779783394 peakUtil=0.57 meanFrag=0.6249516704854646 reconfig=4936400 moves=0 horizon=277",
	"2/1d-slots":                    "offered=40 accepted=8 rejected=32 service=0.2 meanUtil=0.088125 peakUtil=0.13 meanFrag=0.235322419494922 reconfig=902000 moves=0 horizon=176",
	"2/first-fit":                   "offered=40 accepted=30 rejected=10 service=0.75 meanUtil=0.24103146853146853 peakUtil=0.665 meanFrag=0.6457282222904085 reconfig=3562080 moves=0 horizon=286",
	"2/first-fit+alternatives":      "offered=40 accepted=31 rejected=9 service=0.775 meanUtil=0.2928146853146853 peakUtil=0.715 meanFrag=0.6791699011565087 reconfig=4120500 moves=0 horizon=286",
	"2/first-fit+cp-replan":         "offered=40 accepted=31 rejected=9 service=0.775 meanUtil=0.2928146853146853 peakUtil=0.715 meanFrag=0.6791699011565087 reconfig=4120500 moves=0 horizon=286",
	"2/first-fit+cp-replan/plain":   "offered=40 accepted=30 rejected=10 service=0.75 meanUtil=0.24103146853146853 peakUtil=0.665 meanFrag=0.6457282222904085 reconfig=3562080 moves=0 horizon=286",
	"2/mer-best-fit":                "offered=40 accepted=28 rejected=12 service=0.7 meanUtil=0.27557692307692305 peakUtil=0.665 meanFrag=0.673477686601989 reconfig=3454660 moves=0 horizon=286",
	"2/mer-best-fit+alternatives":   "offered=40 accepted=31 rejected=9 service=0.775 meanUtil=0.3061713286713287 peakUtil=0.725 meanFrag=0.673968469177569 reconfig=3873680 moves=0 horizon=286",
	"2/occupied-space":              "offered=40 accepted=30 rejected=10 service=0.75 meanUtil=0.24103146853146853 peakUtil=0.665 meanFrag=0.6457282222904085 reconfig=3562080 moves=0 horizon=286",
	"2/occupied-space+alternatives": "offered=40 accepted=31 rejected=9 service=0.775 meanUtil=0.2928146853146853 peakUtil=0.715 meanFrag=0.6791699011565087 reconfig=4120500 moves=0 horizon=286",
	"3/1d-slots":                    "offered=40 accepted=9 rejected=31 service=0.225 meanUtil=0.03845945945945946 peakUtil=0.115 meanFrag=0.31729042731320906 reconfig=782280 moves=0 horizon=185",
	"3/first-fit":                   "offered=40 accepted=32 rejected=8 service=0.8 meanUtil=0.1625494071146245 peakUtil=0.52 meanFrag=0.6408322188927406 reconfig=3487460 moves=0 horizon=253",
	"3/first-fit+alternatives":      "offered=40 accepted=39 rejected=1 service=0.975 meanUtil=0.2273913043478261 peakUtil=0.73 meanFrag=0.6400500656867285 reconfig=4777320 moves=0 horizon=253",
	"3/first-fit+cp-replan":         "offered=40 accepted=39 rejected=1 service=0.975 meanUtil=0.2273913043478261 peakUtil=0.73 meanFrag=0.6400500656867285 reconfig=4777320 moves=0 horizon=253",
	"3/first-fit+cp-replan/plain":   "offered=40 accepted=35 rejected=5 service=0.875 meanUtil=0.1992094861660079 peakUtil=0.62 meanFrag=0.6455114141792903 reconfig=6621500 moves=24 horizon=253",
	"3/mer-best-fit":                "offered=40 accepted=30 rejected=10 service=0.75 meanUtil=0.17503952569169962 peakUtil=0.57 meanFrag=0.6566158370707307 reconfig=3203740 moves=0 horizon=253",
	"3/mer-best-fit+alternatives":   "offered=40 accepted=35 rejected=5 service=0.875 meanUtil=0.21284584980237153 peakUtil=0.59 meanFrag=0.5666819997017886 reconfig=4009800 moves=0 horizon=253",
	"3/occupied-space":              "offered=40 accepted=32 rejected=8 service=0.8 meanUtil=0.1625494071146245 peakUtil=0.52 meanFrag=0.6408322188927406 reconfig=3487460 moves=0 horizon=253",
	"3/occupied-space+alternatives": "offered=40 accepted=39 rejected=1 service=0.975 meanUtil=0.2273913043478261 peakUtil=0.73 meanFrag=0.6400500656867285 reconfig=4777320 moves=0 horizon=253",
}

// goldenReplanArms label the CP-replan arms in simulateGolden: the
// onlinesim arm (greedy first-fit with alternatives) and one whose
// greedy step uses primary shapes only, so replans succeed and the
// relocation path is pinned too.
var goldenReplanArms = map[string]bool{
	"first-fit+cp-replan":       true,
	"first-fit+cp-replan/plain": false,
}

func goldenStreams(t *testing.T) (*fabric.Region, [][]Task) {
	t.Helper()
	dev := (&fabric.Spec{Name: "golden", W: 20, H: 10, BRAMColumns: []int{5, 14}}).MustBuild()
	var streams [][]Task
	for seed := int64(1); seed <= 3; seed++ {
		cfg := StreamConfig{Tasks: 40, MeanInterarrival: 2, MeanDuration: 40}
		cfg.Library.CLBMin, cfg.Library.CLBMax = 4, 14
		cfg.Library.BRAMMax = 1
		cfg.Library.Alternatives = 4
		cfg.Library.NumModules = 1
		tasks, err := GenerateStream(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, tasks)
	}
	return dev.FullRegion(), streams
}

// goldenLine renders every Stats field; floats use the shortest
// representation that round-trips, so equal lines mean bit-equal stats.
func goldenLine(st *Stats) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("offered=%d accepted=%d rejected=%d service=%s meanUtil=%s peakUtil=%s meanFrag=%s reconfig=%d moves=%d horizon=%d",
		st.Offered, st.Accepted, st.Rejected, g(st.ServiceLevel), g(st.MeanUtil), g(st.PeakUtil), g(st.MeanFrag),
		int64(st.TotalReconfig), st.Moves, st.Horizon)
}

func runReplanArm(region *fabric.Region, tasks []Task, alts bool) (*Stats, error) {
	return SimulateObserved(region, &FirstFit{UseAlternatives: alts}, tasks, fabric.DefaultFrameModel(), &core.Options{}, nil)
}

func TestSimulateGolden(t *testing.T) {
	region, streams := goldenStreams(t)
	for i, tasks := range streams {
		seed := i + 1
		check := func(name string, st *Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			key := fmt.Sprintf("%d/%s", seed, name)
			got := goldenLine(st)
			if want, ok := simulateGolden[key]; !ok || got != want {
				t.Errorf("%q: %q,", key, got)
			}
		}
		for _, mgr := range Managers() {
			st, err := Simulate(region, mgr, tasks, fabric.DefaultFrameModel())
			check(mgr.Name(), st, err)
		}
		for name, alts := range goldenReplanArms {
			st, err := runReplanArm(region, tasks, alts)
			check(name, st, err)
		}
	}
}

package online

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

func clbModule(name string, w, h int) *module.Module {
	var tiles []module.Tile
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tiles = append(tiles, module.Tile{At: grid.Pt(x, y), Kind: fabric.CLB})
		}
	}
	m, err := module.NewModule(name, module.MustShape(tiles))
	if err != nil {
		panic(err)
	}
	return m
}

func TestSimulateFirstFitBasic(t *testing.T) {
	region := fabric.Homogeneous(8, 8).FullRegion()
	tasks := []Task{
		{ID: 0, Module: clbModule("a", 4, 4), Arrive: 0, Duration: 10},
		{ID: 1, Module: clbModule("b", 4, 4), Arrive: 1, Duration: 10},
		{ID: 2, Module: clbModule("c", 8, 8), Arrive: 2, Duration: 10}, // cannot fit alongside
		{ID: 3, Module: clbModule("d", 8, 8), Arrive: 50, Duration: 5}, // fits after departures
	}
	st, err := Simulate(region, &FirstFit{}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != 4 || st.Accepted != 3 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ServiceLevel != 0.75 {
		t.Fatalf("service level = %v", st.ServiceLevel)
	}
	if st.TotalReconfig <= 0 || st.Horizon <= 0 || st.MeanUtil <= 0 {
		t.Fatalf("degenerate stats: %v", st)
	}
}

func TestSimulateDepartureFreesSpace(t *testing.T) {
	region := fabric.Homogeneous(4, 4).FullRegion()
	tasks := []Task{
		{ID: 0, Module: clbModule("a", 4, 4), Arrive: 0, Duration: 10},
		{ID: 1, Module: clbModule("b", 4, 4), Arrive: 10, Duration: 10}, // departs exactly at arrival
	}
	st, err := Simulate(region, &FirstFit{}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 2 {
		t.Fatalf("departure did not free space: %+v", st)
	}
}

// releaseRecorder wraps a manager and records the order Release is
// called in.
type releaseRecorder struct {
	FirstFit
	released []TaskID
}

func (m *releaseRecorder) Release(id TaskID) {
	m.released = append(m.released, id)
	m.FirstFit.Release(id)
}

// TestSameTickDeparturesReleaseInIDOrder pins the departure heap's
// tie-break: tasks departing on the same tick must release in ascending
// id order, not in whatever heap-internal order their insertion
// sequence produced. The ids arrive in descending order so a time-only
// comparison (the old departureHeap.Less) pops them in a different,
// insertion-dependent order.
func TestSameTickDeparturesReleaseInIDOrder(t *testing.T) {
	region := fabric.Homogeneous(16, 16).FullRegion()
	const deadline = 100
	var tasks []Task
	for i := 0; i < 8; i++ {
		// Descending ids 8..1, arriving in that order, all departing at
		// the deadline tick.
		id := TaskID(8 - i)
		tasks = append(tasks, Task{
			ID:       id,
			Module:   clbModule("m", 2, 2),
			Arrive:   int64(i),
			Duration: deadline - int64(i),
		})
	}
	mgr := &releaseRecorder{}
	if _, err := Simulate(region, mgr, tasks, fabric.DefaultFrameModel()); err != nil {
		t.Fatal(err)
	}
	if len(mgr.released) != len(tasks) {
		t.Fatalf("released %d of %d tasks: %v", len(mgr.released), len(tasks), mgr.released)
	}
	for i := 1; i < len(mgr.released); i++ {
		if mgr.released[i-1] >= mgr.released[i] {
			t.Fatalf("same-tick departures released out of id order: %v", mgr.released)
		}
	}
}

// badManager returns overlapping placements to exercise the simulator's
// validation.
type badManager struct{ base }

func (m *badManager) Name() string                { return "bad" }
func (m *badManager) Reset(region *fabric.Region) { m.reset(region) }
func (m *badManager) TryPlace(Task) (Placement, bool) {
	return Placement{Shape: 0, At: grid.Pt(0, 0)}, true
}

func TestSimulateRejectsInvalidManager(t *testing.T) {
	region := fabric.Homogeneous(4, 4).FullRegion()
	tasks := []Task{
		{ID: 0, Module: clbModule("a", 2, 2), Arrive: 0, Duration: 100},
		{ID: 1, Module: clbModule("b", 2, 2), Arrive: 1, Duration: 100},
	}
	if _, err := Simulate(region, &badManager{}, tasks, fabric.DefaultFrameModel()); err == nil {
		t.Fatal("overlapping placement accepted")
	}
}

func TestAllManagersRunCleanOnStream(t *testing.T) {
	dev := (&fabric.Spec{Name: "t", W: 32, H: 16, BRAMColumns: []int{4, 20}}).MustBuild()
	region := dev.FullRegion()
	tasks, err := GenerateStream(StreamConfig{Tasks: 60}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mgr := range Managers() {
		st, err := Simulate(region, mgr, tasks, fabric.DefaultFrameModel())
		if err != nil {
			t.Fatalf("%s: %v", mgr.Name(), err)
		}
		if st.Offered != 60 {
			t.Fatalf("%s: offered %d", mgr.Name(), st.Offered)
		}
		if st.Accepted == 0 {
			t.Fatalf("%s: accepted nothing", mgr.Name())
		}
		if st.String() == "" {
			t.Fatalf("%s: empty stats string", mgr.Name())
		}
	}
}

func TestAlternativesImproveServiceLevel(t *testing.T) {
	// On a heterogeneous region under load, letting the manager choose
	// among design alternatives must not reduce acceptances (same
	// greedy policy, strictly larger choice set at each step is not a
	// guarantee in general, but holds for this seeded stream and is the
	// effect the paper predicts).
	dev := (&fabric.Spec{Name: "t", W: 32, H: 16, BRAMColumns: []int{4, 20}}).MustBuild()
	region := dev.FullRegion()
	tasks, err := GenerateStream(StreamConfig{Tasks: 80, MeanInterarrival: 4}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Simulate(region, &FirstFit{}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	with, err := Simulate(region, &FirstFit{UseAlternatives: true}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if with.Accepted < without.Accepted {
		t.Fatalf("alternatives hurt service: %d < %d", with.Accepted, without.Accepted)
	}
}

func TestSlot1DInternalFragmentation(t *testing.T) {
	// Slot placement reserves full-height slot columns: concurrent
	// acceptance is bounded by slot count even for small modules.
	region := fabric.Homogeneous(32, 16).FullRegion()
	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{
			ID: TaskID(i), Module: clbModule("m", 2, 2), Arrive: int64(i), Duration: 1000,
		})
	}
	st, err := Simulate(region, &Slot1D{SlotWidth: 8}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 4 { // 32/8 slots
		t.Fatalf("slot acceptance = %d, want 4", st.Accepted)
	}
	// 2D first-fit accepts all 8.
	st2, err := Simulate(region, &FirstFit{}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Accepted != 8 {
		t.Fatalf("2D acceptance = %d, want 8", st2.Accepted)
	}
}

func TestSlot1DReleaseReusesSlots(t *testing.T) {
	region := fabric.Homogeneous(16, 8).FullRegion()
	tasks := []Task{
		{ID: 0, Module: clbModule("a", 8, 4), Arrive: 0, Duration: 5},
		{ID: 1, Module: clbModule("b", 8, 4), Arrive: 1, Duration: 5},
		{ID: 2, Module: clbModule("c", 8, 4), Arrive: 20, Duration: 5},
	}
	st, err := Simulate(region, &Slot1D{SlotWidth: 8}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 3 {
		t.Fatalf("slots not reused: %+v", st)
	}
}

func TestGenerateStreamDeterministic(t *testing.T) {
	a, err := GenerateStream(StreamConfig{Tasks: 10}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStream(StreamConfig{Tasks: 10}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Arrive != b[i].Arrive || a[i].Duration != b[i].Duration ||
			a[i].Module.Shape(0).Key() != b[i].Module.Shape(0).Key() {
			t.Fatal("stream not deterministic")
		}
	}
	if a[0].Arrive <= 0 || a[5].Arrive <= a[4].Arrive-1 {
		t.Fatal("arrivals not increasing")
	}
}

func TestGenerateStreamDefaults(t *testing.T) {
	tasks, err := GenerateStream(StreamConfig{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 100 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	for _, task := range tasks {
		if task.Duration < 1 || task.Module == nil {
			t.Fatalf("bad task: %+v", task)
		}
	}
}

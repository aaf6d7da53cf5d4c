package online

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
)

func TestReplanFallsBackToFirstFit(t *testing.T) {
	region := fabric.Homogeneous(8, 8).FullRegion()
	tasks := []Task{
		{ID: 0, Module: clbModule("a", 3, 3), Arrive: 0, Duration: 100},
	}
	st, err := SimulateObserved(region, &FirstFit{UseAlternatives: true}, tasks, fabric.DefaultFrameModel(), &core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Moves != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReplanDefragmentsToAdmit(t *testing.T) {
	// An 8x4 region. Three full-height 2x4 columns land side by side;
	// the middle one departs, leaving two 2-wide gaps (columns 2-3 and
	// 6-7). A 4x2 bar then arrives: plain first-fit has no 4 contiguous
	// free columns and rejects it; CP replan slides the right column
	// left and admits the bar.
	region := fabric.Homogeneous(8, 4).FullRegion()
	tasks := []Task{
		{ID: 0, Module: clbModule("a", 2, 4), Arrive: 0, Duration: 1000},
		{ID: 1, Module: clbModule("b", 2, 4), Arrive: 1, Duration: 5},
		{ID: 2, Module: clbModule("c", 2, 4), Arrive: 2, Duration: 1000},
		{ID: 3, Module: clbModule("bar", 4, 2), Arrive: 50, Duration: 100},
	}
	plain, err := Simulate(region, &FirstFit{}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Accepted != 3 {
		t.Fatalf("premise broken: plain accepted %d, want 3", plain.Accepted)
	}
	replan, err := SimulateObserved(region, &FirstFit{}, tasks, fabric.DefaultFrameModel(),
		&core.Options{Timeout: 5 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if replan.Accepted != 4 {
		t.Fatalf("replan accepted %d, want 4 (moves=%d)", replan.Accepted, replan.Moves)
	}
	if replan.Moves == 0 {
		t.Fatal("replan admitted the bar without any relocation?")
	}
}

func TestReplanImprovesServiceOnStream(t *testing.T) {
	dev := (&fabric.Spec{Name: "t", W: 24, H: 12, BRAMColumns: []int{4, 16}}).MustBuild()
	region := dev.FullRegion()
	stream := StreamConfig{Tasks: 60, MeanInterarrival: 2, MeanDuration: 60}
	stream.Library.CLBMin, stream.Library.CLBMax = 6, 18
	stream.Library.BRAMMax = 1
	stream.Library.Alternatives = 4
	stream.Library.NumModules = 1
	tasks, err := GenerateStream(stream, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(region, &FirstFit{UseAlternatives: true}, tasks, fabric.DefaultFrameModel())
	if err != nil {
		t.Fatal(err)
	}
	replan, err := SimulateObserved(region, &FirstFit{UseAlternatives: true}, tasks, fabric.DefaultFrameModel(),
		&core.Options{Timeout: 5 * time.Second, StallNodes: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if replan.Accepted < plain.Accepted {
		t.Fatalf("replan (%d) worse than plain (%d)", replan.Accepted, plain.Accepted)
	}
	if replan.Moves == 0 && replan.Accepted == plain.Accepted {
		t.Log("no replans triggered on this stream")
	}
	t.Logf("plain=%v replan=%v moves=%d", plain, replan, replan.Moves)
}

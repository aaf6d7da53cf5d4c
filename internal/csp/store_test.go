package csp

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

func TestStoreVarBasics(t *testing.T) {
	st := NewStore()
	v := st.NewVarRange("x", 1, 5)
	if v.Name() != "x" || v.Min() != 1 || v.Max() != 5 || v.Size() != 5 {
		t.Fatalf("var wrong: %v", v)
	}
	if v.Assigned() {
		t.Fatal("fresh var assigned")
	}
	if err := st.Assign(v, 3); err != nil {
		t.Fatal(err)
	}
	if !v.Assigned() || v.Value() != 3 {
		t.Fatal("assignment failed")
	}
	if len(st.Vars()) != 1 {
		t.Fatal("Vars() wrong")
	}
}

func TestStoreNewVarClones(t *testing.T) {
	st := NewStore()
	dom := NewDomainRange(0, 3)
	v := st.NewVar("x", dom)
	dom.Remove(2)
	if !v.Domain().Contains(2) {
		t.Fatal("NewVar did not clone the domain")
	}
}

func TestStoreNewVarPanics(t *testing.T) {
	st := NewStore()
	empty := NewDomainRange(0, 0)
	empty.Remove(0)
	for name, f := range map[string]func(){
		"nil":   func() { st.NewVar("x", nil) },
		"empty": func() { st.NewVar("x", empty) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s domain accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestStoreAssignOutOfDomain(t *testing.T) {
	st := NewStore()
	v := st.NewVarRange("x", 1, 5)
	if err := st.Assign(v, 9); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Assign(9) err = %v", err)
	}
}

func TestStorePushPopRestoresDomains(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)

	st.Push()
	if err := st.SetMin(x, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Assign(y, 2); err != nil {
		t.Fatal(err)
	}
	st.Push()
	if err := st.SetMax(x, 6); err != nil {
		t.Fatal(err)
	}
	if x.Min() != 5 || x.Max() != 6 || y.Value() != 2 {
		t.Fatal("mutations not visible")
	}
	st.Pop()
	if x.Max() != 9 || x.Min() != 5 {
		t.Fatalf("inner Pop wrong: x=%v", x)
	}
	st.Pop()
	if x.Min() != 0 || x.Max() != 9 || y.Size() != 10 {
		t.Fatalf("outer Pop wrong: x=%v y=%v", x, y)
	}
}

func TestStorePopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStore().Pop()
}

func TestStoreFailureClearsOnPop(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 3)
	st.Push()
	// Empty the domain: failure.
	err := st.SetMin(x, 10)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("expected inconsistency, got %v", err)
	}
	if st.Propagate() == nil {
		t.Fatal("Propagate after failure should fail")
	}
	st.Pop()
	if err := st.Propagate(); err != nil {
		t.Fatalf("Propagate after Pop: %v", err)
	}
	if x.Size() != 4 {
		t.Fatal("domain not restored")
	}
}

// countingProp counts invocations and optionally prunes.
type countingProp struct {
	runs  int
	prune func(st *Store) error
}

func (p *countingProp) Propagate(st *Store) error {
	p.runs++
	if p.prune != nil {
		return p.prune(st)
	}
	return nil
}

func TestStorePropagationWakesWatchers(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)
	p := &countingProp{}
	st.Post(p, x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 1 {
		t.Fatalf("initial run count = %d, want 1", p.runs)
	}
	// Changing y does not wake p.
	if err := st.Assign(y, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 1 {
		t.Fatalf("unwatched change woke propagator (runs=%d)", p.runs)
	}
	// Changing x wakes p.
	if err := st.Assign(x, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 2 {
		t.Fatalf("watched change did not wake propagator (runs=%d)", p.runs)
	}
}

func TestStorePropagationFixpoint(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 10)
	y := st.NewVarRange("y", 0, 10)
	// x + 1 <= y and y + 1 <= x is infeasible; the pair must detect it.
	LessEqOffset(st, x, y, 1)
	LessEqOffset(st, y, x, 1)
	if err := st.Propagate(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestStoreScheduleHandle(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	p := &countingProp{}
	h := st.Post(p, x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	st.enqueue(h)
	st.enqueue(h) // dedup: only one queued run
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 2 {
		t.Fatalf("runs = %d, want 2", p.runs)
	}
	if st.nPropag < 2 {
		t.Fatal("Stats not counting")
	}
}

func TestStoreFilterDomainSharing(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	st.Push()
	// A no-op filter must not trail (copy-on-write probe).
	before := len(st.trail)
	if err := st.FilterDomain(x, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(st.trail) != before {
		t.Fatal("no-op FilterDomain trailed a domain")
	}
	if err := st.FilterDomain(x, func(v int) bool { return v < 5 }); err != nil {
		t.Fatal(err)
	}
	if len(st.trail) != before+1 {
		t.Fatal("mutating FilterDomain did not trail")
	}
	st.Pop()
	if x.Size() != 10 {
		t.Fatal("Pop did not restore filtered domain")
	}
}

// TestStoreFilterDomainCallsKeepOnce checks that FilterDomain offers
// keep every value exactly once: the filter starts at the value the
// probe rejected instead of re-testing those below it. The result and
// the prune event's Removed count are unchanged.
func TestStoreFilterDomainCallsKeepOnce(t *testing.T) {
	st := NewStore()
	log := &eventLog{}
	st.SetRecorder(log)
	x := st.NewVarRange("x", 0, 199)
	calls := map[int]int{}
	keep := func(v int) bool {
		calls[v]++
		return v < 70 || v%7 != 0
	}
	if err := st.FilterDomain(x, keep); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 200; v++ {
		if calls[v] != 1 {
			t.Fatalf("keep(%d) called %d times, want once", v, calls[v])
		}
	}
	if len(calls) != 200 {
		t.Fatalf("keep saw %d values, want the domain's 200", len(calls))
	}
	removed := 0
	for v := 0; v < 200; v++ {
		want := v < 70 || v%7 != 0
		if x.Domain().Contains(v) != want {
			t.Fatalf("value %d kept=%v, want %v", v, !want, want)
		}
		if !want {
			removed++
		}
	}
	if log.count(obs.KindPrune) != 1 || log.events[0].Removed != removed {
		t.Fatalf("prune events %+v, want one removing %d", log.events, removed)
	}
}

// TestStorePoolReuseKeepsRestoredDomains checks the trailing free
// list: a domain Pop discards is reused by the next trail of a domain
// of its word count, and writing into it never changes the domain Pop
// restored.
func TestStorePoolReuseKeepsRestoredDomains(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 199)
	y := st.NewVarRange("y", 0, 199)

	st.Push()
	if err := st.SetMax(x, 150); err != nil {
		t.Fatal(err)
	}
	discarded := x.Domain()
	st.Pop()
	restored := x.Domain()
	if restored == discarded || x.Size() != 200 {
		t.Fatalf("Pop did not restore x: %v", x)
	}

	st.Push()
	if err := st.SetMin(y, 120); err != nil {
		t.Fatal(err)
	}
	if y.Domain() != discarded {
		t.Fatal("the trail of y did not reuse the domain Pop discarded")
	}
	if err := st.Assign(y, 130); err != nil {
		t.Fatal(err)
	}
	if x.Domain() != restored || x.Size() != 200 || x.Min() != 0 || x.Max() != 199 {
		t.Fatalf("writing the reused domain changed x: %v", x)
	}
	st.Pop()
	if y.Size() != 200 || x.Size() != 200 {
		t.Fatalf("Pop did not restore: x=%v y=%v", x, y)
	}
}

// TestStoreRemoveMasks checks the batch removal: masks that start
// below the domain's base, straddle a word boundary, run past its last
// word or miss the universe altogether remove exactly the live values
// they mark, as one trailed change with one prune event, and Pop
// restores the domain.
func TestStoreRemoveMasks(t *testing.T) {
	st := NewStore()
	log := &eventLog{}
	st.SetRecorder(log)
	x := st.NewVarRange("x", 100, 291) // base 100, three full words

	st.Push()
	if err := st.RemoveMasks(x, []Mask64{{Lo: 0, Bits: 1<<40 - 1}, {Lo: 300, Bits: ^uint64(0)}}); err != nil {
		t.Fatal(err)
	}
	if len(st.trail) != 0 || len(log.events) != 0 {
		t.Fatalf("masks of absent values trailed %d domains and recorded %v", len(st.trail), log.events)
	}

	masks := []Mask64{
		{Lo: 60, Bits: ^uint64(0)},        // 60..123: starts below the base
		{Lo: 160, Bits: 0xff},             // 160..167: straddles the word boundary at 164
		{Lo: 280, Bits: ^uint64(0)},       // 280..343: runs past the last word
		{Lo: -500, Bits: ^uint64(0)},      // below the universe
		{Lo: 1000, Bits: 1},               // above it
		{Lo: 164, Bits: 1 | 1<<63},        // 164 already removed above; 227 live
		{Lo: 230, Bits: 0b1011_0000_0101}, // 230, 232, 238, 239, 241
	}
	removed := func(v int) bool {
		return v <= 123 || v >= 160 && v <= 167 || v >= 280 || v == 227 ||
			v == 230 || v == 232 || v == 238 || v == 239 || v == 241
	}
	if err := st.RemoveMasks(x, masks); err != nil {
		t.Fatal(err)
	}
	want := 0
	for v := 50; v < 400; v++ {
		in := v >= 100 && v <= 291 && !removed(v)
		if x.Domain().Contains(v) != in {
			t.Fatalf("value %d present=%v, want %v", v, !in, in)
		}
		if in {
			want++
		}
	}
	if x.Size() != want || x.Min() != 124 || x.Max() != 279 {
		t.Fatalf("size %d, min %d, max %d; want %d, 124, 279", x.Size(), x.Min(), x.Max(), want)
	}
	if len(st.trail) != 1 {
		t.Fatalf("one call trailed %d domains, want 1", len(st.trail))
	}
	if log.count(obs.KindPrune) != 1 || log.events[0].Removed != 192-want {
		t.Fatalf("prune events %+v, want one removing %d", log.events, 192-want)
	}

	if err := st.RemoveMasks(x, []Mask64{{Lo: 100, Bits: ^uint64(0)}, {Lo: 164, Bits: ^uint64(0)}, {Lo: 228, Bits: ^uint64(0)}}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("removing every value: %v, want ErrInconsistent", err)
	}
	st.Pop()
	if x.Size() != 192 || x.Min() != 100 || x.Max() != 291 {
		t.Fatalf("Pop left %v, want the full range", x)
	}
}

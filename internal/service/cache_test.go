package service

import (
	"fmt"
	"testing"

	"repro/internal/canon"
)

// Len returns the number of stored outcomes.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Reset drops every stored outcome but keeps the flights in progress
// and the counters (benchmarks use it to force cold-path solves).
func (c *lruCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.unstore(c.ll.Back().Value.(*cacheEntry))
	}
}

func dig(i int) canon.Digest {
	var d canon.Digest
	d[0] = byte(i)
	d[1] = byte(i >> 8)
	return d
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2)
	c.Put(dig(1), stored("one"))
	c.Put(dig(2), stored("two"))
	if _, ok := c.Get(dig(1)); !ok { // 1 becomes most recent
		t.Fatal("entry 1 missing")
	}
	c.Put(dig(3), stored("three")) // evicts 2, the least recently used
	if _, ok := c.Get(dig(2)); ok {
		t.Fatal("entry 2 survived eviction")
	}
	for _, i := range []int{1, 3} {
		if got, ok := c.Get(dig(i)); !ok || label(got) != map[int]string{1: "one", 3: "three"}[i] {
			t.Fatalf("entry %d wrong after eviction: %q ok=%v", i, label(got), ok)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRU(2)
	c.Put(dig(1), stored("a"))
	c.Put(dig(2), stored("b"))
	c.Put(dig(1), stored("a2")) // refresh value and recency; no growth
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Put(dig(3), stored("c")) // 2 is now the oldest
	if _, ok := c.Get(dig(2)); ok {
		t.Fatal("refreshed entry was evicted instead of the oldest")
	}
	if got, _ := c.Get(dig(1)); label(got) != "a2" {
		t.Fatalf("refresh lost: %q", label(got))
	}
}

func TestLRUReset(t *testing.T) {
	c := newLRU(4)
	for i := 0; i < 4; i++ {
		c.Put(dig(i), stored(fmt.Sprint(i)))
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len after reset = %d", c.Len())
	}
	if _, ok := c.Get(dig(0)); ok {
		t.Fatal("entry survived reset")
	}
	// Refill past capacity: eviction bookkeeping must still work.
	for i := 0; i < 6; i++ {
		c.Put(dig(i), stored(fmt.Sprint(i)))
	}
	if c.Len() != 4 {
		t.Fatalf("len after refill = %d, want 4", c.Len())
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRU(0)
	c.Put(dig(1), stored("x"))
	c.Put(dig(2), stored("y"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

func TestLRUDistinctKeysKeepDistinctBodies(t *testing.T) {
	c := newLRU(64)
	for i := 0; i < 64; i++ {
		c.Put(dig(i), stored(fmt.Sprintf("body-%d", i)))
	}
	for i := 0; i < 64; i++ {
		got, ok := c.Get(dig(i))
		if !ok || label(got) != fmt.Sprintf("body-%d", i) {
			t.Fatalf("key %d: got %q ok=%v", i, label(got), ok)
		}
	}
}

// TestJoinRacingLand races Joins against the Land of the flight they
// may join, on one digest, many times over (run under -race in CI).
// Each Join either finds the stored outcome or attaches to the live
// flight and receives its outcome: none registers a second leader for
// a digest whose solve has landed.
func TestJoinRacingLand(t *testing.T) {
	const iterations = 2000
	const joiners = 3
	c := newLRU(8)
	for i := 0; i < iterations; i++ {
		key := dig(i)
		want := stored(fmt.Sprintf("body-%d", i))
		_, f, leader := c.Join(key)
		if !leader {
			t.Fatalf("iteration %d: first Join did not lead", i)
		}
		start := make(chan struct{})
		errs := make(chan error, joiners)
		for j := 0; j < joiners; j++ {
			go func() {
				<-start
				body, g, leader := c.Join(key)
				switch {
				case leader:
					errs <- fmt.Errorf("second leader registered")
				case body != nil:
					if body != want {
						errs <- fmt.Errorf("stored outcome %q, want %q", label(body), label(want))
						return
					}
					errs <- nil
				case g != f:
					errs <- fmt.Errorf("attached to a flight other than the live one")
				default:
					<-g.done
					if g.err != nil || g.res != want {
						errs <- fmt.Errorf("flight outcome %q, %v; want %q", label(g.res), g.err, label(want))
						return
					}
					errs <- nil
				}
			}()
		}
		close(start)
		c.Land(key, f, want, nil, true)
		for j := 0; j < joiners; j++ {
			if err := <-errs; err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
}

// TestLandUnstoredRetiresFlight: a flight landed without storing (a
// failed solve) leaves no entry, so the next Join leads a new solve.
func TestLandUnstoredRetiresFlight(t *testing.T) {
	c := newLRU(2)
	_, f, _ := c.Join(dig(1))
	_, g, leader := c.Join(dig(1))
	if leader || g != f {
		t.Fatal("second Join did not attach to the live flight")
	}
	c.Land(dig(1), f, nil, fmt.Errorf("solve failed"), false)
	if <-g.done; g.err == nil {
		t.Fatal("waiter missed the flight's error")
	}
	if _, _, leader := c.Join(dig(1)); !leader {
		t.Fatal("Join after an unstored Land did not lead")
	}
}

// TestPrivateFlightLandsBesideSharedFlight: a solo solve (a private
// flight that bypassed the shared one) may store its outcome while the
// shared flight still runs; Join then serves that outcome, and the shared
// flight still lands for its own waiters. Reset drops the outcome but
// keeps a live flight.
func TestPrivateFlightLandsBesideSharedFlight(t *testing.T) {
	c := newLRU(2)
	_, shared, _ := c.Join(dig(1))
	c.Land(dig(1), newFlight(), stored("solo"), nil, true)
	if body, _, _ := c.Join(dig(1)); label(body) != "solo" {
		t.Fatalf("Join after the solo landing: outcome %q, want solo", label(body))
	}
	c.Reset()
	if _, f, leader := c.Join(dig(1)); leader || f != shared {
		t.Fatal("Reset dropped the live flight")
	}
	c.Land(dig(1), shared, stored("shared"), nil, true)
	if body, _ := c.Get(dig(1)); label(body) != "shared" {
		t.Fatalf("stored outcome %q after the shared landing, want shared", label(body))
	}
	if _, _, leader := c.Join(dig(2)); !leader || c.Len() != 1 {
		t.Fatalf("bookkeeping: len %d", c.Len())
	}
}

// TestFrontBodiesFollowTheirEntry: front bodies hang off the stored
// outcome they were encoded from. An entry keeps the newest maxFronts
// of them, refuses one encoded from an outcome it no longer stores,
// and drops them all when its outcome is refreshed or evicted.
func TestFrontBodiesFollowTheirEntry(t *testing.T) {
	c := newLRU(2)
	res := stored("a")
	c.Put(dig(1), res)
	for i := 0; i <= maxFronts; i++ {
		c.AddFront(dig(100+i), dig(1), res, []byte(fmt.Sprint(i)))
	}
	if body, _ := c.Front(dig(100)); body != nil {
		t.Fatal("oldest front body kept past maxFronts")
	}
	if body, key := c.Front(dig(100 + maxFronts)); string(body) != fmt.Sprint(maxFronts) || key != dig(1) {
		t.Fatalf("newest front body %q under %x, want %d under entry 1", body, key[:2], maxFronts)
	}
	c.AddFront(dig(200), dig(1), stored("stale"), []byte("x"))
	if body, _ := c.Front(dig(200)); body != nil {
		t.Fatal("front body encoded from an outcome the entry does not store was recorded")
	}
	c.Put(dig(1), stored("a2")) // refresh
	if body, _ := c.Front(dig(100 + maxFronts)); body != nil {
		t.Fatal("front body outlived the refresh of its outcome")
	}
	res = stored("b")
	c.Put(dig(2), res)
	c.AddFront(dig(300), dig(2), res, []byte("b"))
	c.Put(dig(3), stored("c"))
	c.Put(dig(4), stored("d")) // evicts entry 2
	if body, _ := c.Front(dig(300)); body != nil {
		t.Fatal("front body outlived the eviction of its entry")
	}
	if len(c.fronts) != 0 {
		t.Fatalf("%d front bodies left without an entry", len(c.fronts))
	}
}

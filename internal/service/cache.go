package service

import (
	"container/list"
	"sync"

	"repro/internal/canon"
)

// CacheStats is a snapshot of the result cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lruCache is the daemon's one table keyed by canonical request
// digest. Each entry is either a stored response body or a solve in
// flight, and one lock covers both, so a lookup either finds the body
// or finds the flight that will store it: a request never starts a
// second solve for a digest whose solve has just landed. Stored bodies
// are the exact bytes served for the original solve, which is what
// makes cache hits byte-identical to the first response. At most
// capacity bodies are stored; the least recently used is evicted
// first. Safe for concurrent use.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // stored entries, front = most recently used
	items     map[canon.Digest]*cacheEntry
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one digest's row. It is stored while elem is set and
// in flight while f is set; it is briefly both when a solo solve (one
// that bypassed the shared flight under a singleflight fault) lands
// while the shared flight still runs.
type cacheEntry struct {
	key  canon.Digest
	body []byte
	elem *list.Element // position in ll while stored
	f    *flight
}

// flight is one solve in progress. Its waiters block on done; body and
// err are final once done is closed.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

func newFlight() *flight { return &flight{done: make(chan struct{})} }

// newLRU returns a cache storing at most capacity bodies (minimum 1).
func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[canon.Digest]*cacheEntry, capacity),
	}
}

// Join looks key up. It returns the stored body if there is one (and
// marks it most recently used); otherwise the flight in progress for
// key, registering a new one led by the caller (leader = true) when
// there is none. A leader must Land its flight. Callers must not
// mutate the returned body.
func (c *lruCache) Join(key canon.Digest) (body []byte, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e != nil && e.elem != nil {
		c.hits++
		c.ll.MoveToFront(e.elem)
		return e.body, nil, false
	}
	c.misses++
	if e != nil {
		return nil, e.f, false
	}
	f = newFlight()
	c.items[key] = &cacheEntry{key: key, f: f}
	return nil, f, true
}

// Land finishes flight f for key: it stores body when store is set,
// retires f if it is key's registered flight, and wakes f's waiters
// with body and err. Storing and retiring happen under one lock, so no
// Join sees the digest as neither stored nor in flight.
func (c *lruCache) Land(key canon.Digest, f *flight, body []byte, err error, store bool) {
	c.mu.Lock()
	if store {
		c.store(key, body)
	}
	if e := c.items[key]; e != nil && e.f == f {
		e.f = nil
		if e.elem == nil {
			delete(c.items, key)
		}
	}
	c.mu.Unlock()
	f.body, f.err = body, err
	close(f.done)
}

// store puts body under key, evicting the least recently used bodies
// while the cache is full. Storing an existing key refreshes its body
// and recency. c.mu must be held.
func (c *lruCache) store(key canon.Digest, body []byte) {
	e := c.items[key]
	if e == nil {
		e = &cacheEntry{key: key}
		c.items[key] = e
	}
	e.body = body
	if e.elem != nil {
		c.ll.MoveToFront(e.elem)
		return
	}
	for c.ll.Len() >= c.capacity {
		c.unstore(c.ll.Back().Value.(*cacheEntry))
		c.evictions++
	}
	e.elem = c.ll.PushFront(e)
}

// unstore drops e's body, and e itself unless a flight still needs
// it. c.mu must be held.
func (c *lruCache) unstore(e *cacheEntry) {
	c.ll.Remove(e.elem)
	e.elem, e.body = nil, nil
	if e.f == nil {
		delete(c.items, e.key)
	}
}

// Len returns the number of stored bodies.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Reset drops every stored body but keeps the flights in progress and
// the counters (benchmarks use it to force cold-path solves).
func (c *lruCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.unstore(c.ll.Back().Value.(*cacheEntry))
	}
}

// Stats snapshots the counters.
func (c *lruCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

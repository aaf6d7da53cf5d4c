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
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lruCache is the daemon's one table keyed by canonical request
// digest. Each entry is either a stored solve outcome (in canonical
// terms, see placed) or a solve in flight, and one lock covers both,
// so a lookup either finds the outcome or finds the flight that will
// store it: a request never starts a second solve for a digest whose
// solve has just landed. At most capacity outcomes are stored; the
// least recently used is evicted first.
//
// A stored entry also keeps the finished bodies of the requests it
// answered (at most maxFronts, oldest dropped first), keyed by the
// front key, the canon.BodyDigest of each request body: equal bytes
// decode to the same instance in the same module and shape order,
// hence the same body, so a repeat is answered before it is parsed.
// Front bodies go with their entry when it is evicted or refreshed.
// Safe for concurrent use.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // stored entries, front = most recently used
	items     map[canon.Digest]*cacheEntry
	fronts    map[canon.Digest]frontBody
	misses    int64
	evictions int64
}

// maxFronts bounds the front bodies one entry keeps. A client sends
// few spellings of one instance (module orders, one generate spec),
// but it could mint them without end.
const maxFronts = 4

// cacheEntry is one digest's row. It is stored while elem is set and
// in flight while f is set; it is briefly both when a solo solve (one
// that bypassed the shared flight under a singleflight fault) lands
// while the shared flight still runs.
type cacheEntry struct {
	key    canon.Digest
	res    *placed
	fronts []canon.Digest // front bodies answered from res, oldest first
	elem   *list.Element  // position in ll while stored
	f      *flight
}

// frontBody is a finished body for one request body.
type frontBody struct {
	owner *cacheEntry
	body  []byte
}

// flight is one solve in progress. Its waiters block on done; res and
// err are final once done is closed.
type flight struct {
	done chan struct{}
	res  *placed
	err  error
}

func newFlight() *flight { return &flight{done: make(chan struct{})} }

// newLRU returns a cache storing at most capacity outcomes (minimum 1).
func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[canon.Digest]*cacheEntry, capacity),
		fronts:   make(map[canon.Digest]frontBody),
	}
}

// Front returns the body stored under a front key and the digest of
// its instance, marking the instance most recently used; nil when
// there is none. It counts nothing: the server counts a served body as
// a hit, and a request without one goes on to Join. Callers must not
// mutate the body.
func (c *lruCache) Front(front canon.Digest) ([]byte, canon.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fb, ok := c.fronts[front]
	if !ok {
		return nil, canon.Digest{}
	}
	c.ll.MoveToFront(fb.owner.elem)
	return fb.body, fb.owner.key
}

// AddFront records body as the answer to the request body keyed front,
// encoded from res, the outcome stored under key. It records nothing
// when res is no longer key's stored outcome (the entry was evicted or
// refreshed meanwhile).
func (c *lruCache) AddFront(front, key canon.Digest, res *placed, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e == nil || e.elem == nil || e.res != res {
		return
	}
	if _, ok := c.fronts[front]; ok {
		return // a body names one instance, so it is already e's
	}
	if len(e.fronts) == maxFronts {
		delete(c.fronts, e.fronts[0])
		e.fronts = e.fronts[1:]
	}
	e.fronts = append(e.fronts, front)
	c.fronts[front] = frontBody{owner: e, body: body}
}

// Join looks key up. It returns the stored outcome if there is one
// (and marks it most recently used); otherwise the flight in progress
// for key, registering a new one led by the caller (leader = true)
// when there is none. A leader must Land its flight.
func (c *lruCache) Join(key canon.Digest) (res *placed, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e != nil && e.elem != nil {
		c.ll.MoveToFront(e.elem)
		return e.res, nil, false
	}
	c.misses++
	if e != nil {
		return nil, e.f, false
	}
	f = newFlight()
	c.items[key] = &cacheEntry{key: key, f: f}
	return nil, f, true
}

// Land finishes flight f for key: it stores res when store is set,
// retires f if it is key's registered flight, and wakes f's waiters
// with res and err. Storing and retiring happen under one lock, so no
// Join sees the digest as neither stored nor in flight.
func (c *lruCache) Land(key canon.Digest, f *flight, res *placed, err error, store bool) {
	c.mu.Lock()
	if store {
		c.store(key, res)
	}
	if e := c.items[key]; e != nil && e.f == f {
		e.f = nil
		if e.elem == nil {
			delete(c.items, key)
		}
	}
	c.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// store puts res under key, evicting the least recently used entries
// while the cache is full. Storing an existing key refreshes its
// outcome and recency and drops the front bodies encoded from the old
// outcome. c.mu must be held.
func (c *lruCache) store(key canon.Digest, res *placed) {
	e := c.items[key]
	if e == nil {
		e = &cacheEntry{key: key}
		c.items[key] = e
	}
	c.dropFronts(e)
	e.res = res
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

// unstore drops e's outcome and front bodies, and e itself unless a
// flight still needs it. c.mu must be held.
func (c *lruCache) unstore(e *cacheEntry) {
	c.ll.Remove(e.elem)
	c.dropFronts(e)
	e.elem, e.res = nil, nil
	if e.f == nil {
		delete(c.items, e.key)
	}
}

func (c *lruCache) dropFronts(e *cacheEntry) {
	for _, front := range e.fronts {
		delete(c.fronts, front)
	}
	e.fronts = nil
}

// Stats snapshots the counters.
func (c *lruCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

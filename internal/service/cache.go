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
// A stored entry also keeps the finished bodies of the generate specs
// it answered (at most maxSpecs, oldest dropped first), keyed by spec
// digest: a spec fixes its batch's module and shape order, hence its
// body, so a repeat is answered without expanding the batch. Spec
// bodies go with their entry when it is evicted or refreshed. Safe for
// concurrent use.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // stored entries, front = most recently used
	items     map[canon.Digest]*cacheEntry
	specs     map[canon.Digest]specBody
	misses    int64
	evictions int64
}

// maxSpecs bounds the spec bodies one entry keeps. Distinct specs of
// one instance are rare (tiny batches drawn alike from several seeds),
// but a client could mint them without end.
const maxSpecs = 4

// cacheEntry is one digest's row. It is stored while elem is set and
// in flight while f is set; it is briefly both when a solo solve (one
// that bypassed the shared flight under a singleflight fault) lands
// while the shared flight still runs.
type cacheEntry struct {
	key   canon.Digest
	res   *placed
	specs []canon.Digest // spec bodies answered from res, oldest first
	elem  *list.Element  // position in ll while stored
	f     *flight
}

// specBody is a finished body for one generate spec.
type specBody struct {
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
		specs:    make(map[canon.Digest]specBody),
	}
}

// Spec returns the body stored for a generate spec and the digest of
// its instance, marking the instance most recently used; nil when
// there is none. It counts nothing: the server counts a served body as
// a hit, and a request without one goes on to Join. Callers must not
// mutate the body.
func (c *lruCache) Spec(spec canon.Digest) ([]byte, canon.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sb, ok := c.specs[spec]
	if !ok {
		return nil, canon.Digest{}
	}
	c.ll.MoveToFront(sb.owner.elem)
	return sb.body, sb.owner.key
}

// AddSpec records body as the answer to spec, encoded from res, the
// outcome stored under key. It records nothing when res is no longer
// key's stored outcome (the entry was evicted or refreshed meanwhile).
func (c *lruCache) AddSpec(spec, key canon.Digest, res *placed, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e == nil || e.elem == nil || e.res != res {
		return
	}
	if _, ok := c.specs[spec]; ok {
		return // a spec names one instance, so it is already e's
	}
	if len(e.specs) == maxSpecs {
		delete(c.specs, e.specs[0])
		e.specs = e.specs[1:]
	}
	e.specs = append(e.specs, spec)
	c.specs[spec] = specBody{owner: e, body: body}
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
// outcome and recency and drops the spec bodies encoded from the old
// outcome. c.mu must be held.
func (c *lruCache) store(key canon.Digest, res *placed) {
	e := c.items[key]
	if e == nil {
		e = &cacheEntry{key: key}
		c.items[key] = e
	}
	c.dropSpecs(e)
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

// unstore drops e's outcome and spec bodies, and e itself unless a
// flight still needs it. c.mu must be held.
func (c *lruCache) unstore(e *cacheEntry) {
	c.ll.Remove(e.elem)
	c.dropSpecs(e)
	e.elem, e.res = nil, nil
	if e.f == nil {
		delete(c.items, e.key)
	}
}

func (c *lruCache) dropSpecs(e *cacheEntry) {
	for _, spec := range e.specs {
		delete(c.specs, spec)
	}
	e.specs = nil
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

package service

import "repro/internal/canon"

// Get and Put give the LRU tests direct access to the stored bodies,
// outside the flight bookkeeping that Join and Land add on top.

// Get returns the stored body for key and marks it most recently used.
func (c *lruCache) Get(key canon.Digest) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e == nil || e.elem == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e.elem)
	return e.body, true
}

// Put stores body under key.
func (c *lruCache) Put(key canon.Digest, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, body)
}

package service

import "repro/internal/canon"

// Get and Put give the LRU tests direct access to the stored outcomes,
// outside the flight bookkeeping that Join and Land add on top.

// Get returns the stored outcome for key and marks it most recently
// used.
func (c *lruCache) Get(key canon.Digest) (*placed, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e == nil || e.elem == nil {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(e.elem)
	return e.res, true
}

// Put stores res under key.
func (c *lruCache) Put(key canon.Digest, res *placed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, res)
}

// stored is a stand-in outcome the LRU tests tell apart by its label.
func stored(label string) *placed { return &placed{head: PlaceResponse{Reason: label}} }

// label reads a stand-in outcome's label ("" for none).
func label(p *placed) string {
	if p == nil {
		return ""
	}
	return p.head.Reason
}

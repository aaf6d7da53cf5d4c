package service

import (
	"context"
	"errors"
	"sync/atomic"
)

// errBusy is returned by gate.Acquire when the wait line is full. The
// HTTP layer maps it to 429 Too Many Requests: under overload the
// daemon sheds load immediately instead of building an unbounded
// backlog of multi-second solves.
var errBusy = errors.New("service: admission queue full")

// gate bounds concurrent solves: at most cap(slots) run at once, and at
// most maxWait callers wait for a slot. A caller runs its solve on its
// own goroutine between Acquire and Release, so a solve never changes
// goroutine. Waiters are admitted in arrival order (blocked channel
// sends are served FIFO).
type gate struct {
	slots   chan struct{}
	maxWait int64
	waiting atomic.Int64
}

// newGate returns a gate of slots slots and a wait line of maxWait
// (minimums 1 and 0).
func newGate(slots, maxWait int) *gate {
	return &gate{slots: make(chan struct{}, max(slots, 1)), maxWait: int64(max(maxWait, 0))}
}

// Acquire takes a slot, waiting while all are taken. It returns errBusy
// without waiting when maxWait callers already wait, and ctx.Err() if
// ctx ends before a slot frees up.
func (g *gate) Acquire(ctx context.Context) error {
	if g.TryAcquire() {
		return nil
	}
	if g.waiting.Add(1) > g.maxWait {
		g.waiting.Add(-1)
		return errBusy
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot if one is free.
func (g *gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire, admitting the
// longest waiter if there is one.
func (g *gate) Release() { <-g.slots }

// QueueDepth returns the number of callers waiting for a slot.
func (g *gate) QueueDepth() int { return int(g.waiting.Load()) }

// InFlight returns the number of slots taken.
func (g *gate) InFlight() int { return len(g.slots) }

package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGateShedsPastMaxWait: with the one slot taken and maxWait callers
// already waiting, the next caller is shed with errBusy at once.
func TestGateShedsPastMaxWait(t *testing.T) {
	g := newGate(1, 2)
	if !g.TryAcquire() {
		t.Fatal("fresh gate has no free slot")
	}
	admitted := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { admitted <- g.Acquire(context.Background()) }()
	}
	waitUntil(t, "two waiters", func() bool { return g.QueueDepth() == 2 })
	if err := g.Acquire(context.Background()); !errors.Is(err, errBusy) {
		t.Fatalf("third waiter: err %v, want errBusy", err)
	}
	if d := g.QueueDepth(); d != 2 {
		t.Fatalf("shed caller changed the queue depth to %d", d)
	}
	for i := 0; i < 2; i++ {
		g.Release()
		if err := <-admitted; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	g.Release()
	if g.InFlight() != 0 || g.QueueDepth() != 0 {
		t.Fatalf("drained gate: in flight %d, queued %d", g.InFlight(), g.QueueDepth())
	}
}

// TestGateCanceledWaiterLeaves: a waiter whose context ends gets
// ctx.Err() and leaves the queue.
func TestGateCanceledWaiterLeaves(t *testing.T) {
	g := newGate(1, 4)
	g.TryAcquire()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()
	waitUntil(t, "the waiter", func() bool { return g.QueueDepth() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err %v, want context.Canceled", err)
	}
	if g.QueueDepth() != 0 || g.InFlight() != 1 {
		t.Fatalf("after cancel: queued %d, in flight %d; want 0 and 1", g.QueueDepth(), g.InFlight())
	}
}

// TestGateReleaseAdmitsWaiter: a waiter stays blocked while every slot
// is taken and takes the slot that Release frees.
func TestGateReleaseAdmitsWaiter(t *testing.T) {
	g := newGate(1, 1)
	g.TryAcquire()
	done := make(chan error, 1)
	go func() { done <- g.Acquire(context.Background()) }()
	waitUntil(t, "the waiter", func() bool { return g.QueueDepth() == 1 })
	select {
	case err := <-done:
		t.Fatalf("waiter admitted while the slot was taken (err %v)", err)
	case <-time.After(10 * time.Millisecond):
	}
	g.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("admitted waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not admit the waiter")
	}
	if g.TryAcquire() {
		t.Fatal("the freed slot went to a newcomer instead of the waiter")
	}
	if g.QueueDepth() != 0 || g.InFlight() != 1 {
		t.Fatalf("after admission: queued %d, in flight %d; want 0 and 1", g.QueueDepth(), g.InFlight())
	}
}

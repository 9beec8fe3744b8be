package queue

import (
	"runtime"
	"sync/atomic"
)

// waitSpins is how many times Wait re-checks before parking. Producers
// publish in batches, so a ring that is empty after a few yields usually
// stays empty until the next batch, and every further yield is a trip
// through the scheduler. At 64 spins those trips were the largest cost
// left in oijd's CPU profile; 4 cut its CPU per tuple by 10–28% on each
// of the four bench workloads (2 vCPUs) without moving its throughput.
const waitSpins = 4

// Waker parks the consumer of one or more rings while they are empty and
// lets their producers wake it without a syscall on the busy path. It is
// the blocking wait strategy of the LMAX Disruptor, reduced to a flag and
// a one-slot channel:
//
//   - the consumer spins waitSpins times, then stores sleeping=true,
//     re-checks its rings, and only then parks on the channel;
//   - a producer publishes its item (the ring's tail store), then loads
//     sleeping, and sends a non-blocking token only when it is set.
//
// sync/atomic operations are sequentially consistent, so of the two
// store-then-load pairs at least one side sees the other's store: either
// the consumer's re-check finds the item, or the producer finds the flag
// and leaves a token. A wakeup cannot be lost. A token left over from a
// race the consumer won costs one spurious wake, after which it re-checks
// and parks again.
//
// Rings that one consumer reads share one Waker. Each ring keeps its one
// producer, and those producers may wake the shared Waker concurrently.
type Waker struct {
	_        pad
	sleeping atomic.Bool
	_        pad
	ch       chan struct{}
}

// NewWaker returns a Waker with no consumer parked.
func NewWaker() *Waker { return &Waker{ch: make(chan struct{}, 1)} }

// wake unparks the consumer if it is parked or about to park. TryPush
// calls it after publishing; while the consumer is busy it is one load.
func (w *Waker) wake() {
	if w.sleeping.Load() {
		w.signal()
	}
}

// signal leaves a token for the consumer unless one is already pending.
func (w *Waker) signal() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// Wait returns once ready reports true, parking the calling consumer when
// a short spin does not see it. ready must become true only through a
// ring publish or Close on a ring that shares this Waker (both wake it);
// Wait may also return after a spurious wake, so callers loop.
func (w *Waker) Wait(ready func() bool) {
	for i := 0; i < waitSpins; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	w.sleeping.Store(true)
	if !ready() {
		<-w.ch
	}
	w.sleeping.Store(false)
}

// Package queue provides the lock-free single-producer/single-consumer ring
// buffer used as the transport between partitioner threads, joiner threads,
// and result mergers, and the one wait strategy (Waker) every consumer of
// an empty ring parks on. Every engine in the repository moves tuples over
// these rings, so transport overhead is identical across algorithms and
// measured differences come from the join designs themselves. MPSC, a
// bounded many-to-one queue that moves items in runs, carries the serving
// path's handoffs: sessions into the ingest funnel, results to a session's
// writer.
package queue

import (
	"sync/atomic"
)

const cacheLine = 64

// pad separates hot atomics onto their own cache lines to avoid false
// sharing between the producer and consumer cores.
type pad [cacheLine]byte

// SPSC is a bounded lock-free ring buffer carrying values from exactly one
// producer goroutine to exactly one consumer goroutine.
//
// The implementation is the classic Lamport queue with cached indices: the
// producer caches the consumer's head and only re-reads the shared atomic
// when the cached value indicates a full ring (and symmetrically for the
// consumer), so the steady-state cost per operation is one release store.
// A push also loads the consumer's sleeping flag (see Waker), which sits on
// its own cache line and stays unset while the consumer is busy.
type SPSC[T any] struct {
	mask uint64
	buf  []T
	w    *Waker

	_          pad
	head       atomic.Uint64 // next slot to read; owned by consumer
	cachedTail uint64        // consumer's snapshot of tail
	_          pad
	tail       atomic.Uint64 // next slot to write; owned by producer
	cachedHead uint64        // producer's snapshot of head
	_          pad
	closed     atomic.Bool
}

// NewSPSC creates a ring with capacity rounded up to the next power of two
// (minimum 2) and a Waker of its own.
func NewSPSC[T any](capacity int) *SPSC[T] {
	return NewSPSCWaker[T](capacity, NewWaker())
}

// NewSPSCWaker creates a ring whose pushes and Close wake w. Rings drained
// by one consumer share one Waker, so one park covers all of them.
func NewSPSCWaker[T any](capacity int, w *Waker) *SPSC[T] {
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &SPSC[T]{mask: n - 1, buf: make([]T, n), w: w}
}

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// TryPush appends v and reports success; it fails only when the ring is
// full. Must be called from the single producer goroutine.
func (q *SPSC[T]) TryPush(v T) bool {
	tail := q.tail.Load()
	if tail-q.cachedHead >= uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if tail-q.cachedHead >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	q.w.wake()
	return true
}

// TryPop removes the oldest value and reports success; it fails when the
// ring is empty. Must be called from the single consumer goroutine.
func (q *SPSC[T]) TryPop() (T, bool) {
	head := q.head.Load()
	if head == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head == q.cachedTail {
			var zero T
			return zero, false
		}
	}
	v := q.buf[head&q.mask]
	q.head.Store(head + 1)
	return v, true
}

// PopBatch pops up to len(out) values into out and returns the count.
func (q *SPSC[T]) PopBatch(out []T) int {
	head := q.head.Load()
	avail := q.cachedTail - head
	if avail == 0 {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - head
		if avail == 0 {
			return 0
		}
	}
	n := uint64(len(out))
	if avail < n {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		out[i] = q.buf[(head+i)&q.mask]
	}
	q.head.Store(head + n)
	return int(n)
}

// Len returns the approximate number of buffered values. Safe from any
// goroutine; the value may be stale by the time it is observed.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Close marks the queue closed and wakes its consumer; the producer must
// not push afterwards.
func (q *SPSC[T]) Close() {
	q.closed.Store(true)
	q.w.signal()
}

// Closed reports whether Close has been called. A consumer should treat
// Closed-and-empty as end of stream.
func (q *SPSC[T]) Closed() bool { return q.closed.Load() }

// readable reports whether the ring holds an item or is closed: the
// condition a parked consumer waits for.
func (q *SPSC[T]) readable() bool { return q.Len() > 0 || q.Closed() }

// Wait blocks the consumer until the ring holds an item or is closed (or
// until a spurious wake; callers loop). Consumer goroutine only.
func (q *SPSC[T]) Wait() { q.w.Wait(q.readable) }

package queue

import "sync"

// MPSC is a bounded multi-producer, single-consumer queue that moves items
// in runs: a producer appends a whole run under one lock acquisition, and
// the consumer takes up to a buffer-full of the oldest items with another.
// Its capacity counts items, not runs, so batching changes what a handoff
// costs but not how much the queue holds.
//
// Storage is one ring of capacity items allocated up front, and both sides
// copy in and out of it, so the queue allocates nothing after NewMPSC
// except a wait channel while a producer finds it full.
type MPSC[T any] struct {
	mu     sync.Mutex
	buf    []T // ring storage
	head   int // index of the oldest item
	n      int // items queued
	closed bool
	// space is closed by the next Take when a producer found the queue
	// full; it exists only while one waits.
	space chan struct{}
	// ready holds one token while items or a close are waiting for the
	// consumer.
	ready chan struct{}
}

// NewMPSC returns an empty queue holding at most capacity items (minimum 1).
func NewMPSC[T any](capacity int) *MPSC[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &MPSC[T]{buf: make([]T, capacity), ready: make(chan struct{}, 1)}
}

// Cap returns the queue's capacity in items.
func (q *MPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of items queued. Safe from any goroutine.
func (q *MPSC[T]) Len() int {
	q.mu.Lock()
	n := q.n
	q.mu.Unlock()
	return n
}

// Put appends the longest prefix of items that fits, in order, and returns
// its length. When some items did not fit it also returns a channel that
// is closed once the consumer next takes, so the producer can wait for
// room and put the rest. Putting into a closed queue panics, as a send on
// a closed channel does.
func (q *MPSC[T]) Put(items []T) (int, <-chan struct{}) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("queue: Put on closed MPSC")
	}
	k := min(len(items), len(q.buf)-q.n)
	tail := (q.head + q.n) % len(q.buf)
	c := copy(q.buf[tail:], items[:k])
	copy(q.buf, items[c:k])
	q.n += k
	var space chan struct{}
	if k < len(items) {
		if q.space == nil {
			q.space = make(chan struct{})
		}
		space = q.space
	}
	q.mu.Unlock()
	if k > 0 {
		q.signal()
	}
	return k, space
}

// PutAll puts every item, waiting for room while the queue is full. It
// gives up when stop is closed (a nil stop never fires) and returns how
// many items it put.
func (q *MPSC[T]) PutAll(items []T, stop <-chan struct{}) int {
	n, space := q.Put(items)
	for n < len(items) {
		select {
		case <-space:
		case <-stop:
			return n
		}
		m, more := q.Put(items[n:])
		n, space = n+m, more
	}
	return n
}

// signal leaves the consumer a token unless one is already waiting.
func (q *MPSC[T]) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// Ready returns the channel the consumer waits on: it holds a token once
// items were put or the queue was closed. A token can be stale (its items
// already taken), so the consumer treats an empty Take as a spurious wake.
func (q *MPSC[T]) Ready() <-chan struct{} { return q.ready }

// Take moves up to len(dst) of the oldest items into dst and frees their
// room. It returns how many it moved and how many are still queued; the
// consumer keeps taking until left is 0 before it waits on Ready again.
// done reports that the queue is closed and now empty. Consumer only.
func (q *MPSC[T]) Take(dst []T) (n, left int, done bool) {
	q.mu.Lock()
	n = min(len(dst), q.n)
	end := min(q.head+n, len(q.buf))
	c := copy(dst, q.buf[q.head:end])
	copy(dst[c:n], q.buf)
	// Cleared so the ring pins nothing the consumer has taken.
	clear(q.buf[q.head:end])
	clear(q.buf[:n-c])
	q.head = (q.head + n) % len(q.buf)
	q.n -= n
	if n > 0 && q.space != nil {
		close(q.space)
		q.space = nil
	}
	left, done = q.n, q.closed && q.n == 0
	q.mu.Unlock()
	return n, left, done
}

// Close marks the end of the stream and wakes the consumer; items already
// queued are still taken. No producer may Put after Close.
func (q *MPSC[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

// Package watermark tracks event-time progress of out-of-order streams.
//
// A watermark at value w asserts that no tuple with event timestamp <= w
// will arrive in the future. With a lateness bound l, the assigner emits
// w = maxSeenEventTime - l, which is exactly the guarantee the paper's
// workloads provide ("lateness represents the maximum degree of disorder").
// The join engines use watermarks to decide when a base tuple's window is
// complete (results may be emitted) and when probe tuples are expired.
package watermark

import (
	"math"
	"sync/atomic"

	"oij/internal/tuple"
)

// MinTime is the watermark value before any tuple has been observed.
const MinTime tuple.Time = math.MinInt64

// Assigner derives watermarks from observed event timestamps of a single
// source under a fixed lateness bound. It is not safe for concurrent use;
// each source goroutine owns one Assigner.
type Assigner struct {
	lateness tuple.Time
	maxTS    tuple.Time
	seen     bool
}

// NewAssigner returns an Assigner with the given lateness bound (µs).
func NewAssigner(lateness tuple.Time) *Assigner {
	return &Assigner{lateness: lateness, maxTS: MinTime}
}

// Observe records an event timestamp and returns the current watermark.
func (a *Assigner) Observe(ts tuple.Time) tuple.Time {
	if !a.seen || ts > a.maxTS {
		a.maxTS = ts
		a.seen = true
	}
	return a.Current()
}

// Current returns the watermark implied by the timestamps observed so far,
// or MinTime if nothing has been observed.
func (a *Assigner) Current() tuple.Time {
	if !a.seen {
		return MinTime
	}
	return a.maxTS - a.lateness
}

// Tracker merges watermarks from several sources and exposes the combined
// (minimum) watermark to concurrent readers. The combined watermark of a
// join is the minimum over both input streams: a window is complete only
// when *neither* stream can deliver a tuple inside it any more.
//
// Sources update their slot with Update; any goroutine may call Global.
type Tracker struct {
	slots []atomic.Int64
}

// NewTracker creates a tracker for n sources, all starting at MinTime.
func NewTracker(n int) *Tracker {
	t := &Tracker{slots: make([]atomic.Int64, n)}
	for i := range t.slots {
		t.slots[i].Store(MinTime)
	}
	return t
}

// Update advances source i's watermark to wm. Watermarks are monotone; a
// stale (smaller) update is ignored so sources may publish unconditionally.
func (t *Tracker) Update(i int, wm tuple.Time) {
	for {
		cur := t.slots[i].Load()
		if wm <= cur {
			return
		}
		if t.slots[i].CompareAndSwap(cur, wm) {
			return
		}
	}
}

// Global returns the minimum watermark across all sources.
func (t *Tracker) Global() tuple.Time {
	min := tuple.Time(math.MaxInt64)
	for i := range t.slots {
		if v := t.slots[i].Load(); v < min {
			min = v
		}
	}
	return min
}

// Of returns source i's watermark: an upper bound on Global that only
// source i can raise.
func (t *Tracker) Of(i int) tuple.Time { return t.slots[i].Load() }

// Sources returns the number of tracked sources.
func (t *Tracker) Sources() int { return len(t.slots) }

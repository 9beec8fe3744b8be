// Package timetravel implements the paper's two-layer "time-travel" data
// structure (§V-A): a first-layer skip-list mapping join keys to per-key
// second-layer skip-lists mapping event timestamps to tuple payloads.
//
// Locating a window boundary costs O(log N_key) + O(log N_ts), and a window
// scan then touches only in-window tuples — this is what makes lateness
// (and therefore buffer size) insignificant to Scale-OIJ's performance,
// in contrast to the full-buffer scans of Key-OIJ. A reader whose window
// only slides forward pays even that only once: it keeps the key's Series
// and a Cursor at each window edge, and walks the edges forward from them,
// so the O(log) seeks happen only when it has to fall back (first window,
// team change, a window that moved backward, or an evicted cursor).
//
// The time layer stores compact (timestamp, value) entries: the engines
// aggregate over the numeric payload, and keeping entries small (a 40 B
// level-0 skip-list record each, plus about 3 B of tower on average)
// preserves the scan locality of the arena-backed skip-list and bounds
// the index's memory. A deployment carrying wider payloads would store an
// index or pointer as the value.
//
// The index inherits the SWMR concurrency property of its skip-lists:
// exactly one owner goroutine writes (Put/Evict) while any number of team
// members read (ScanWindow/...), which is the substrate of the shared
// processing framework in §V-B.
package timetravel

import (
	"oij/internal/skiplist"
	"oij/internal/tuple"
)

// Series is the second-layer index for one key: event timestamp → value.
type Series struct {
	times *skiplist.List[tuple.Time, float64]
}

// newSeries creates the per-key time layer. The seed decorrelates tower
// heights across keys.
func newSeries(seed uint64) *Series {
	return &Series{times: skiplist.New[tuple.Time, float64](seed)}
}

// Len returns the number of buffered entries for this key.
func (s *Series) Len() int { return s.times.Len() }

// AscendRange visits buffered entries with lo <= ts <= hi in timestamp
// order; it returns the number of entries visited (== matched, since the
// index seeks directly to the boundary).
func (s *Series) AscendRange(lo, hi tuple.Time, fn func(ts tuple.Time, val float64) bool) int {
	return s.times.AscendRange(lo, hi, fn)
}

// Ascend visits buffered entries with ts >= lo in timestamp order until fn
// returns false.
func (s *Series) Ascend(lo tuple.Time, fn func(ts tuple.Time, val float64) bool) {
	s.times.Ascend(lo, fn)
}

// Cursor is a saved position in a Series' time layer. Before walking
// one, a holder checks that it is at the head or that its Key is at or
// above every eviction bound so far (see skiplist.Cursor).
type Cursor = skiplist.Cursor[tuple.Time, float64]

// Before returns a cursor at the last entry with timestamp < ts, or at the
// head if there is none.
func (s *Series) Before(ts tuple.Time) Cursor { return s.times.Before(ts) }

// Through returns a cursor at the last entry with timestamp <= ts, or at
// the head if there is none.
func (s *Series) Through(ts tuple.Time) Cursor { return s.times.Through(ts) }

// MinTS returns the smallest buffered timestamp.
func (s *Series) MinTS() (tuple.Time, bool) {
	ts, _, ok := s.times.Min()
	return ts, ok
}

// Index is the two-layer time-travel structure. One goroutine (the owner)
// may call Put and EvictBefore; any goroutine may call the read methods.
type Index struct {
	keys *skiplist.List[tuple.Key, *Series]
	// cache is the owner's key → series shortcut so the hot insert path
	// skips the first-layer search; readers always go through the
	// skip-list (a Go map is not safe for concurrent read/write).
	cache map[tuple.Key]*Series
	seed  uint64
	// size tracks live entries across all keys; maintained by the owner.
	size int
}

// New returns an empty index. The seed varies skip-list shapes between
// joiners.
func New(seed uint64) *Index {
	if seed == 0 {
		seed = 1
	}
	return &Index{
		keys:  skiplist.New[tuple.Key, *Series](seed),
		cache: make(map[tuple.Key]*Series),
		seed:  seed,
	}
}

// Put inserts a tuple's (timestamp, value) under its key and returns the
// number and bytes of the skip-list slabs (nodes and towers) it allocated:
// 0, 0 for most inserts, since a slab holds up to 512 nodes or tower
// pointers. Owner-only.
func (ix *Index) Put(t tuple.Tuple) (slabs, bytes int64) {
	s, ok := ix.cache[t.Key]
	if !ok {
		// Single writer: check-then-insert cannot race with another
		// writer; readers either miss the key (empty window, correct
		// until the tuple is published) or see the fully built series.
		ix.seed = ix.seed*6364136223846793005 + 1442695040888963407
		s = newSeries(ix.seed | 1)
		slabs, bytes = ix.keys.Put(t.Key, s)
		ix.cache[t.Key] = s
	}
	ts, tb := s.times.Put(t.TS, t.Val)
	ix.size++
	return slabs + ts, bytes + tb
}

// Series returns the per-key time layer, or nil if the key has never been
// inserted. A key's Series never changes once created (eviction keeps it),
// so a reader may resolve it once and keep it.
func (ix *Index) Series(key tuple.Key) *Series {
	s, ok := ix.keys.Get(key)
	if !ok {
		return nil
	}
	return s
}

// ScanWindow visits every buffered entry with the given key and lo <= ts
// <= hi and returns the number visited.
func (ix *Index) ScanWindow(key tuple.Key, lo, hi tuple.Time, fn func(ts tuple.Time, val float64) bool) int {
	s := ix.Series(key)
	if s == nil {
		return 0
	}
	return s.AscendRange(lo, hi, fn)
}

// EvictBefore removes every entry with ts < bound across all keys and
// returns the number removed. Owner-only. Empty series are kept: the paper
// observes per-key structure overhead as a cost of many keys, and keys
// that went quiet typically come back.
func (ix *Index) EvictBefore(bound tuple.Time) int {
	removed := 0
	ix.keys.All(func(_ tuple.Key, s *Series) bool {
		removed += s.times.EvictBefore(bound)
		return true
	})
	ix.size -= removed
	return removed
}

// Len returns the number of live entries in the index (owner's view).
func (ix *Index) Len() int { return ix.size }

// Keys returns the number of distinct keys ever inserted.
func (ix *Index) Keys() int { return ix.keys.Len() }

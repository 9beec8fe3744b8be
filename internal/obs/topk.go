// SpaceSaving top-K sketch (Metwally, Agrawal, El Abbadi: "Efficient
// computation of frequent and top-k elements in data streams"): fixed
// memory, one O(log k) min-heap fix-up per observation, and a per-entry
// overestimation bound. The serving path shards one sketch per joiner —
// keys are routed by the same hash the engines partition on — so the
// shards' key spaces are disjoint and the merged view is exact about
// which shard a hot key burdens.
//
// Error bound: an entry's true count f satisfies
//
//	count - err <= f <= count
//
// and any key with true frequency above Total/k is guaranteed to be
// resident in a k-slot sketch (the classic SpaceSaving guarantee), so the
// merged top-K can miss a key only if its stream share is below 1/k per
// shard.
package obs

import (
	"sort"
	"sync"
)

// TopKEntry is one key's row in a sketch snapshot. Count overestimates the
// true frequency by at most Err.
type TopKEntry struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// TopKSnapshot is a point-in-time copy of a sketch (or a merge of several),
// sorted by count descending, ties broken by key ascending so equal inputs
// always render identically.
type TopKSnapshot struct {
	K       int         `json:"k"`
	Total   uint64      `json:"total"`
	Entries []TopKEntry `json:"entries"`
}

// scanLimit is the largest k for which key lookup is a linear scan of a
// packed key array instead of a map. A miss-heavy stream (uniform keys at
// a full sketch) pays the lookup on every tuple, and at sketch sizes that
// fit in a few cache lines a branch-predictable scan is several times
// cheaper than Go map hash+probe+delete+insert — the difference between
// the telemetry gate passing and failing on the fastest single-threaded
// cell.
const scanLimit = 64

// TopK is a SpaceSaving sketch over uint64 keys. Observe is guarded by a
// mutex: the only contention is a scrape's brief snapshot copy (k entries),
// so the uncontended fast path is one lock word plus a key lookup and the
// heap fix-up — cheap enough that the perf regression gate holds it inside
// the noise floor (see oijbench gate -telemetry).
type TopK struct {
	mu      sync.Mutex
	k       int
	total   uint64
	entries []TopKEntry    // min-heap on Count; entries[0] is the victim
	keys    []uint64       // keys[i] == entries[i].Key, packed for scanning
	idx     map[uint64]int // key -> heap position; nil when k <= scanLimit
}

// NewTopK builds a sketch retaining k keys (minimum 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	t := &TopK{k: k, entries: make([]TopKEntry, 0, k), keys: make([]uint64, 0, k)}
	if k > scanLimit {
		t.idx = make(map[uint64]int, k)
	}
	return t
}

// find returns key's heap position, or -1.
func (t *TopK) find(key uint64) int {
	if t.idx != nil {
		if i, ok := t.idx[key]; ok {
			return i
		}
		return -1
	}
	for i, k := range t.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Observe records one occurrence of key.
func (t *TopK) Observe(key uint64) {
	t.mu.Lock()
	t.total++
	if i := t.find(key); i >= 0 {
		t.entries[i].Count++
		t.siftDown(i)
	} else if len(t.entries) < t.k {
		t.entries = append(t.entries, TopKEntry{Key: key, Count: 1})
		t.keys = append(t.keys, key)
		if t.idx != nil {
			t.idx[key] = len(t.entries) - 1
		}
		t.siftUp(len(t.entries) - 1)
	} else {
		// Evict the minimum: the newcomer inherits its count as error —
		// the SpaceSaving replacement that keeps every resident count an
		// upper bound on the true frequency.
		victim := t.entries[0]
		if t.idx != nil {
			delete(t.idx, victim.Key)
			t.idx[key] = 0
		}
		t.entries[0] = TopKEntry{Key: key, Count: victim.Count + 1, Err: victim.Count}
		t.keys[0] = key
		t.siftDown(0)
	}
	t.mu.Unlock()
}

// Total returns how many observations the sketch has absorbed.
func (t *TopK) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot copies the sketch, sorted hottest-first (count desc, key asc).
func (t *TopK) Snapshot() TopKSnapshot {
	t.mu.Lock()
	s := TopKSnapshot{K: t.k, Total: t.total, Entries: append([]TopKEntry(nil), t.entries...)}
	t.mu.Unlock()
	sortTopK(s.Entries)
	return s
}

func sortTopK(es []TopKEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		return es[i].Key < es[j].Key
	})
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.entries[p].Count <= t.entries[i].Count {
			return
		}
		t.swap(p, i)
		i = p
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.entries)
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && t.entries[l].Count < t.entries[min].Count {
			min = l
		}
		if r < n && t.entries[r].Count < t.entries[min].Count {
			min = r
		}
		if min == i {
			return
		}
		t.swap(min, i)
		i = min
	}
}

func (t *TopK) swap(i, j int) {
	t.entries[i], t.entries[j] = t.entries[j], t.entries[i]
	t.keys[i], t.keys[j] = t.keys[j], t.keys[i]
	if t.idx != nil {
		t.idx[t.entries[i].Key] = i
		t.idx[t.entries[j].Key] = j
	}
}

// MergeTopK folds shard snapshots into one k-slot view. Counts and error
// bounds of keys appearing in several shards are summed (for hash-disjoint
// shards this never happens and the merge is exact); the result is sorted
// count-desc/key-asc and truncated, so merging the same snapshots in any
// order yields the same document — the determinism the analytics tests
// pin down.
func MergeTopK(k int, snaps ...TopKSnapshot) TopKSnapshot {
	if k < 1 {
		k = 1
	}
	merged := map[uint64]TopKEntry{}
	out := TopKSnapshot{K: k}
	for _, s := range snaps {
		out.Total += s.Total
		for _, e := range s.Entries {
			m := merged[e.Key]
			m.Key = e.Key
			m.Count += e.Count
			m.Err += e.Err
			merged[e.Key] = m
		}
	}
	out.Entries = make([]TopKEntry, 0, len(merged))
	for _, e := range merged {
		out.Entries = append(out.Entries, e)
	}
	sortTopK(out.Entries)
	if len(out.Entries) > k {
		out.Entries = out.Entries[:k]
	}
	return out
}

// HotKeys is a per-joiner-sharded SpaceSaving tracker for one stream: keys
// are routed to shards by the supplied hash mod shard count — the same
// partition the engines use to assign keys to joiners — so each shard's
// top keys are exactly the keys burdening that joiner.
type HotKeys struct {
	hash   func(uint64) uint64
	shards []*TopK
}

// NewHotKeys builds a tracker with one k-slot sketch per shard. hash nil
// means identity (tests); shards < 1 clamps to 1.
func NewHotKeys(shards, k int, hash func(uint64) uint64) *HotKeys {
	if shards < 1 {
		shards = 1
	}
	if hash == nil {
		hash = func(k uint64) uint64 { return k }
	}
	h := &HotKeys{hash: hash, shards: make([]*TopK, shards)}
	for i := range h.shards {
		h.shards[i] = NewTopK(k)
	}
	return h
}

// Observe records one key occurrence in its owning shard. The single-shard
// layout (a one-joiner engine) skips the routing hash entirely.
func (h *HotKeys) Observe(key uint64) {
	if len(h.shards) == 1 {
		h.shards[0].Observe(key)
		return
	}
	h.shards[h.hash(key)%uint64(len(h.shards))].Observe(key)
}

// Shards returns the shard count.
func (h *HotKeys) Shards() int { return len(h.shards) }

// ShardSnapshot copies shard i.
func (h *HotKeys) ShardSnapshot(i int) TopKSnapshot { return h.shards[i].Snapshot() }

// Merged returns the cross-shard top-k view.
func (h *HotKeys) Merged(k int) TopKSnapshot {
	snaps := make([]TopKSnapshot, len(h.shards))
	for i, s := range h.shards {
		snaps[i] = s.Snapshot()
	}
	return MergeTopK(k, snaps...)
}

// Total returns observations across all shards.
func (h *HotKeys) Total() uint64 {
	var n uint64
	for _, s := range h.shards {
		n += s.Total()
	}
	return n
}

// TopShare returns the merged stream shares of h's top k keys (see
// TopKSnapshot.Shares).
func (h *HotKeys) TopShare(k int) (top1, topK float64) { return h.Merged(k).Shares() }

// Shares returns the stream share of the hottest key and of the full
// top-k residency — the skew gauges the timeline records so a key going
// hot is visible as a rising curve, not just a point-in-time list.
func (m TopKSnapshot) Shares() (top1, topK float64) {
	if m.Total == 0 {
		return 0, 0
	}
	var sum uint64
	for _, e := range m.Entries {
		sum += e.Count
	}
	if len(m.Entries) > 0 {
		top1 = float64(m.Entries[0].Count) / float64(m.Total)
	}
	topK = float64(sum) / float64(m.Total)
	if topK > 1 {
		topK = 1
	}
	return top1, topK
}

// Package skiplist implements the single-writer/multiple-reader (SWMR)
// lock-free skip-list underpinning the paper's "time-travel" index
// (Algorithms 1 and 2 of the paper).
//
// Exactly one goroutine may mutate a list (Put, EvictBefore); any number of
// goroutines may concurrently read it (Get, SeekGE, Ascend...). The insert
// path first wires the new node's next pointers while the node is still
// private (the paper's relaxed stores), then publishes it bottom-up through
// the predecessors' next pointers (the paper's release stores); readers load
// next pointers through sync/atomic, giving them at least the
// acquire semantics Algorithm 1 requires. Go's atomics are sequentially
// consistent, which is strictly stronger than the paper's release/acquire
// pairs, so the published node is atomically visible with fully initialized
// contents.
//
// Two engineering details keep the write path cheap on the streaming hot
// path: nodes embed a fixed-size tower (one allocation per insert, no
// separate pointer slice), and the writer keeps a splice hint — the
// predecessor set of its previous insert — so mostly-ascending timestamp
// sequences splice in O(1) amortized instead of O(log n) from the head.
//
// Duplicate keys are allowed and kept adjacent in insertion order, which
// the time layer of the time-travel index relies on (several tuples may
// carry the same event timestamp).
//
// A Cursor is a reader's saved level-0 position: a reader whose range only
// moves forward (an incremental window edge) walks on from it one pointer
// load per entry instead of seeking from the head again.
package skiplist

import (
	"sync/atomic"
	"unsafe"
)

// MaxHeight bounds the tower height of any node. 12 levels with the 1/4
// branching factor used below index ~16M entries per list, far more than
// any workload in the paper buffers per key.
const MaxHeight = 12

// Ordered is the constraint for skip-list keys: the time layer uses int64
// event timestamps and the key layer uint64 join keys.
type Ordered interface {
	~int64 | ~uint64 | ~int | ~uint32 | ~int32
}

// Arena granularity: nodes are bump-allocated out of contiguous slabs so
// that (mostly time-ordered) inserts land adjacent in memory and window
// scans walk prefetch-friendly sequential lines instead of pointer-chasing
// scattered heap objects. Eviction removes a prefix of the time order,
// which is also roughly a prefix of the slab order, so whole slabs become
// collectable together. Slabs start tiny and double: workloads with very
// many keys hold millions of (mostly small) lists, and a fixed large slab
// would multiply their footprint by orders of magnitude.
const (
	minSlabSize = 8
	maxSlabSize = 512
)

type node[K Ordered, V any] struct {
	// Hot fields first: a level-0 scan touches key, val and next[0],
	// which share the node's first cache lines.
	key K
	val V
	// height is the tower height; 0 marks the head sentinel.
	height int32
	next   [MaxHeight]atomic.Pointer[node[K, V]]
}

// List is a SWMR skip-list from K to V.
//
// The zero value is not usable; call New.
type List[K Ordered, V any] struct {
	head *node[K, V]
	// length is maintained by the writer and read by anyone; it counts
	// live (non-evicted) entries.
	length atomic.Int64
	// rng is the writer-private xorshift state used to draw tower
	// heights; it needs no synchronization because only the single
	// writer calls Put.
	rng uint64
	// hint caches the predecessor set of the previous Put; valid only
	// while hintKey stays <= the next inserted key and no eviction has
	// run since (EvictBefore invalidates it). Writer-private.
	hint      [MaxHeight]*node[K, V]
	hintKey   K
	hintValid bool
	// slab is the writer-private allocation arena (see minSlabSize).
	slab    []node[K, V]
	slabPos int
}

// alloc bump-allocates one zeroed node from the arena, growing slabs
// geometrically up to maxSlabSize. It returns the bytes of the slab it had
// to allocate, 0 when the current slab had room.
func (l *List[K, V]) alloc() (*node[K, V], int64) {
	var grew int64
	if l.slabPos == len(l.slab) {
		next := len(l.slab) * 2
		if next < minSlabSize {
			next = minSlabSize
		}
		if next > maxSlabSize {
			next = maxSlabSize
		}
		l.slab = make([]node[K, V], next)
		l.slabPos = 0
		grew = int64(next) * int64(unsafe.Sizeof(node[K, V]{}))
	}
	n := &l.slab[l.slabPos]
	l.slabPos++
	return n, grew
}

// New returns an empty list. seed varies the height sequence between lists
// so sibling indexes do not develop identical (pathological) shapes.
func New[K Ordered, V any](seed uint64) *List[K, V] {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &List[K, V]{
		head: &node[K, V]{},
		rng:  seed,
	}
}

// randomHeight draws a tower height with P(h >= k+1 | h >= k) = 1/4.
func (l *List[K, V]) randomHeight() int {
	x := l.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng = x
	h := 1
	for h < MaxHeight && x&3 == 0 {
		h++
		x >>= 2
	}
	return h
}

// Len returns the number of live entries.
func (l *List[K, V]) Len() int { return int(l.length.Load()) }

// Put inserts key with value v after any existing entries with the same
// key and returns the bytes of the node slab it allocated (0 for most
// inserts: a slab holds up to maxSlabSize nodes). Only the single writer
// goroutine may call Put.
func (l *List[K, V]) Put(key K, v V) (allocBytes int64) {
	// Phase 1 (paper Alg. 2, lines 1-11): locate, at every level, the
	// last node whose key is <= key (so duplicates append after their
	// equals), recording it in pre. Ascending inserts resume from the
	// previous splice point instead of the head.
	var pre [MaxHeight]*node[K, V]
	n := l.head
	useHint := l.hintValid && key >= l.hintKey
	if useHint {
		n = l.hint[MaxHeight-1]
	}
	for level := MaxHeight - 1; level >= 0; level-- {
		// Finger search: the previous insert's predecessor at this
		// level may be further ahead than the position carried down
		// from the level above; jump to whichever is closer to key
		// (both are valid level-`level` predecessors with key <=
		// hintKey <= key).
		if useHint && l.hint[level].key > n.key {
			n = l.hint[level]
		}
		for {
			next := n.next[level].Load()
			if next == nil || next.key > key {
				break
			}
			n = next
		}
		pre[level] = n
	}

	// Phase 2 (lines 12-16): build the private node, wire its next
	// pointers, then publish bottom-up. Until the level-0 predecessor is
	// updated no reader can observe the node; after it, readers see a
	// fully formed node at level 0 and possibly-later at upper levels,
	// which only affects search speed, never correctness.
	h := l.randomHeight()
	nn, allocBytes := l.alloc()
	nn.key, nn.val, nn.height = key, v, int32(h)
	for i := 0; i < h; i++ {
		nn.next[i].Store(pre[i].next[i].Load())
	}
	for i := 0; i < h; i++ {
		pre[i].next[i].Store(nn)
	}
	l.length.Add(1)

	// Remember the splice for the next (likely >=) insert.
	l.hint = pre
	for i := 0; i < h; i++ {
		l.hint[i] = nn
	}
	l.hintKey = key
	l.hintValid = true
	return allocBytes
}

// Get returns the value of the first entry with the given key.
func (l *List[K, V]) Get(key K) (V, bool) {
	n := l.seekGE(key)
	if n != nil && n.key == key {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether an entry with the given key exists.
func (l *List[K, V]) Contains(key K) bool {
	n := l.seekGE(key)
	return n != nil && n.key == key
}

// seekGE returns the first node with key >= target, or nil. This is the
// paper's Algorithm 1 search loop: descend while the successor overshoots,
// advance while it undershoots, loading every next pointer atomically.
//
// It returns the level-0 successor it compared against target: loading
// n.next[0] again could observe a node the writer spliced in after n
// since, whose key may be below target.
func (l *List[K, V]) seekGE(target K) *node[K, V] {
	n := l.head
	var next *node[K, V]
	for level := MaxHeight - 1; level >= 0; level-- {
		for {
			next = n.next[level].Load()
			if next == nil || next.key >= target {
				break
			}
			n = next
		}
	}
	return next
}

// Min returns the smallest key in the list.
func (l *List[K, V]) Min() (K, V, bool) {
	n := l.head.next[0].Load()
	if n == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return n.key, n.val, true
}

// AscendRange calls fn for every entry with lo <= key <= hi in ascending
// key order (duplicates in insertion order) and stops early if fn returns
// false. It returns the number of entries visited. Safe for concurrent use
// with the writer.
func (l *List[K, V]) AscendRange(lo, hi K, fn func(key K, v V) bool) int {
	visited := 0
	for n := l.seekGE(lo); n != nil && n.key <= hi; n = n.next[0].Load() {
		visited++
		if !fn(n.key, n.val) {
			break
		}
	}
	return visited
}

// Ascend calls fn for every entry with key >= lo in ascending order until
// fn returns false.
func (l *List[K, V]) Ascend(lo K, fn func(key K, v V) bool) {
	for n := l.seekGE(lo); n != nil; n = n.next[0].Load() {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// All calls fn for every entry in ascending order until fn returns false.
func (l *List[K, V]) All(fn func(key K, v V) bool) {
	for n := l.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// Cursor is a saved level-0 position in a list: the head (before every
// entry) or one entry. The zero Cursor is no position at all; Valid tells
// them apart.
//
// Holding and walking a cursor is safe alongside the writer, with one
// condition the holder must check before each walk: the cursor's entry
// must not have been evicted. An evicted entry keeps its forward pointer,
// so a walk from it still terminates and sees keys in order, but entries
// inserted after the unlink ahead of the first survivor are not reachable
// from it. A holder that knows a bound at or above every eviction so far
// (the time-travel index's users know it from the watermark) compares Key
// against it and reseeks when the entry lies below. The head is never
// evicted.
//
// A cursor keeps its entry's whole slab reachable; drop cursors that are
// no longer walked.
type Cursor[K Ordered, V any] struct {
	n *node[K, V]
}

// Before returns a cursor at the last entry with key < target, or at the
// head if there is none.
func (l *List[K, V]) Before(target K) Cursor[K, V] {
	return Cursor[K, V]{l.seekLast(target, true)}
}

// Through returns a cursor at the last entry with key <= target, or at the
// head if there is none.
func (l *List[K, V]) Through(target K) Cursor[K, V] {
	return Cursor[K, V]{l.seekLast(target, false)}
}

// seekLast descends like seekGE but returns the last node before the
// target: key < target when strict, key <= target otherwise.
func (l *List[K, V]) seekLast(target K, strict bool) *node[K, V] {
	n := l.head
	for level := MaxHeight - 1; level >= 0; level-- {
		for {
			next := n.next[level].Load()
			if next == nil || next.key > target || strict && next.key == target {
				break
			}
			n = next
		}
	}
	return n
}

// Valid reports whether c is a position (not the zero Cursor).
func (c Cursor[K, V]) Valid() bool { return c.n != nil }

// AtHead reports whether c is before every entry.
func (c Cursor[K, V]) AtHead() bool { return c.n.height == 0 }

// Key returns the key of c's entry; meaningless at the head.
func (c Cursor[K, V]) Key() K { return c.n.key }

// Value returns the value of c's entry; meaningless at the head.
func (c Cursor[K, V]) Value() V { return c.n.val }

// Next returns the cursor at the entry after c and true, or false at the
// end of the list. It costs one atomic load; c itself does not move.
func (c Cursor[K, V]) Next() (Cursor[K, V], bool) {
	n := c.n.next[0].Load()
	return Cursor[K, V]{n}, n != nil
}

// EvictBefore unlinks every entry with key < bound and returns how many
// were removed. Only the single writer may call it.
//
// Eviction by watermark always removes a prefix of the key order, so the
// unlink is a head-pointer rewire: at every level the head's next pointer
// is advanced past the dying prefix. Evicted nodes keep their forward
// pointers, so a reader that entered the prefix before the rewire still
// walks forward into live nodes and terminates normally — it may observe
// entries that were valid when its scan began, which is the anomaly the
// SWMR design explicitly permits (a scan concurrent with eviction behaves
// as if it ran just before the eviction).
func (l *List[K, V]) EvictBefore(bound K) int {
	first := l.head.next[0].Load()
	if first == nil || first.key >= bound {
		return 0
	}
	// The splice hint may reference dying nodes whose frozen forward
	// pointers would skip entries inserted after the unlink; drop it.
	l.hintValid = false
	// Rewire top-down so that a concurrent reader never descends from a
	// taller level into an already-unlinked shorter prefix.
	for level := MaxHeight - 1; level >= 0; level-- {
		n := l.head.next[level].Load()
		if n == nil || n.key >= bound {
			continue
		}
		for {
			next := n.next[level].Load()
			if next == nil || next.key >= bound {
				break
			}
			n = next
		}
		l.head.next[level].Store(n.next[level].Load())
	}
	// Count the dead prefix (writer-only walk over unlinked nodes).
	removed := 0
	for n := first; n != nil && n.key < bound; n = n.next[0].Load() {
		removed++
	}
	l.length.Add(int64(-removed))
	return removed
}

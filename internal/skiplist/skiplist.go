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
// A node is a small level-0 record: key, value, the level-0 next pointer,
// the height and a pointer to its upper tower. The tower (height-1 next
// pointers, none for the three quarters of nodes of height 1) is carved
// from a second arena. Both arenas are writer-private slabs that fill and
// retire in insertion order, so a level-0 walk strides one small record
// per entry. Eviction points every evicted node back at the head, so a
// slab is garbage once none of its entries is live, however widely
// stragglers spread the keys of one slab. Descents start at the tallest
// live height, not at MaxHeight, and the writer keeps a splice
// hint, the predecessor set of its previous insert, so mostly-ascending
// timestamp sequences splice in O(1) amortized instead of O(log n) from
// the head.
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

// Arena granularity: nodes and towers are bump-allocated out of contiguous
// slabs (minSlabSize..maxSlabSize nodes, or tower pointers) so that
// (mostly time-ordered) inserts land adjacent in memory and window scans
// walk prefetch-friendly sequential lines instead of pointer-chasing
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
	// A level-0 walk touches key, val and next only, all in this record.
	key  K
	val  V
	next atomic.Pointer[node[K, V]]
	// up is the first of the node's height-1 upper next pointers, which
	// sit contiguously in a tower slab (nil for height 1): the level-i
	// pointer, i >= 1, is up[i-1]. See tower.
	up *atomic.Pointer[node[K, V]]
	// height is the tower height; 0 marks the head sentinel, whose tower
	// holds all MaxHeight-1 upper levels.
	height int32
}

// linkSize is the size of one next pointer in a tower slab.
const linkSize = int(unsafe.Sizeof(atomic.Pointer[int]{}))

// tower returns n's level-`level` next pointer for 1 <= level < height (any
// upper level for the head).
func (n *node[K, V]) tower(level int) *atomic.Pointer[node[K, V]] {
	return (*atomic.Pointer[node[K, V]])(unsafe.Add(unsafe.Pointer(n.up), (level-1)*linkSize))
}

// link returns n's level-`level` next pointer, level 0 included.
func (n *node[K, V]) link(level int) *atomic.Pointer[node[K, V]] {
	if level == 0 {
		return &n.next
	}
	return n.tower(level)
}

// succ returns the entry after n at level 0, or nil at the end. An evicted
// n leads back to the head (see EvictBefore); succ then resumes at the
// first live entry not below n, so a walk stays in key order.
func (n *node[K, V]) succ() *node[K, V] {
	next := n.next.Load()
	if next != nil && next.height == 0 {
		for next = next.next.Load(); next != nil && (next.height == 0 || next.key < n.key); {
			next = next.next.Load()
		}
	}
	return next
}

// minKey returns the lowest value of K, the head's key.
func minKey[K Ordered]() K {
	var k K
	if ^k > k {
		return k // unsigned
	}
	return ^k << (8*unsafe.Sizeof(k) - 1)
}

// List is a SWMR skip-list from K to V.
//
// The zero value is not usable; call New.
type List[K Ordered, V any] struct {
	head *node[K, V]
	// length is maintained by the writer and read by anyone; it counts
	// live (non-evicted) entries.
	length atomic.Int64
	// top is the tallest height among the live nodes (1 while empty).
	// Every descent starts at level top-1: the head's pointers above it
	// are nil. The writer raises it after publishing a taller node and
	// lowers it after evicting the tallest ones. A reader holding a stale
	// value is still correct: one too high starts at nil head pointers,
	// one too low descends from lower down, and level 0 is always
	// complete.
	top atomic.Int32
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
	// nodes and towers are the writer-private allocation arenas (see
	// minSlabSize): the current slab and how much of it is used.
	nodes    []node[K, V]
	nodePos  int
	towers   []atomic.Pointer[node[K, V]]
	towerPos int
}

// slabLen is the length of the slab after one of length cur: double it,
// within [minSlabSize, maxSlabSize], and at least need.
func slabLen(cur, need int) int {
	return max(need, min(max(2*cur, minSlabSize), maxSlabSize))
}

// alloc bump-allocates one zeroed node of height h, and its tower when h >
// 1, growing the arenas' slabs geometrically up to maxSlabSize. It returns
// the number of slabs it had to allocate (0, 1 or 2) and their bytes; a
// tower that does not fit in the rest of the current tower slab starts a
// new one.
func (l *List[K, V]) alloc(h int) (n *node[K, V], slabs, bytes int64) {
	if l.nodePos == len(l.nodes) {
		size := slabLen(len(l.nodes), 1)
		l.nodes = make([]node[K, V], size)
		l.nodePos = 0
		slabs++
		bytes += int64(size) * int64(unsafe.Sizeof(node[K, V]{}))
	}
	n = &l.nodes[l.nodePos]
	l.nodePos++
	if h == 1 {
		return n, slabs, bytes
	}
	if l.towerPos+h-1 > len(l.towers) {
		size := slabLen(len(l.towers), h-1)
		l.towers = make([]atomic.Pointer[node[K, V]], size)
		l.towerPos = 0
		slabs++
		bytes += int64(size * linkSize)
	}
	n.up = &l.towers[l.towerPos]
	l.towerPos += h - 1
	return n, slabs, bytes
}

// New returns an empty list. seed varies the height sequence between lists
// so sibling indexes do not develop identical (pathological) shapes.
func New[K Ordered, V any](seed uint64) *List[K, V] {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	l := &List[K, V]{
		head: &node[K, V]{key: minKey[K](), up: &new([MaxHeight - 1]atomic.Pointer[node[K, V]])[0]},
		rng:  seed,
	}
	l.top.Store(1)
	return l
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
// key. It returns the number of slabs it allocated for the node and its
// tower, and their bytes: 0, 0 for most inserts, since a slab holds up to
// maxSlabSize nodes or tower pointers. Only the single writer goroutine
// may call Put.
func (l *List[K, V]) Put(key K, v V) (slabs, bytes int64) {
	// Phase 1 (paper Alg. 2, lines 1-11): locate, at every level, the
	// last node whose key is <= key (so duplicates append after their
	// equals), recording it in pre. Ascending inserts resume from the
	// previous splice point instead of the head. Levels at and above top
	// hold nothing, so their predecessor is the head.
	var pre [MaxHeight]*node[K, V]
	top := int(l.top.Load())
	n := l.head
	useHint := l.hintValid && key >= l.hintKey
	if useHint {
		n = l.hint[top-1]
	}
	for level := top - 1; level >= 0; level-- {
		// Finger search: the previous insert's predecessor at this
		// level may be further ahead than the position carried down
		// from the level above; jump to whichever is closer to key
		// (both are valid level-`level` predecessors with key <=
		// hintKey <= key).
		if useHint && l.hint[level].key > n.key {
			n = l.hint[level]
		}
		for {
			next := n.link(level).Load()
			if next == nil || next.key > key {
				break
			}
			n = next
		}
		pre[level] = n
	}
	h := l.randomHeight()
	for level := top; level < h; level++ {
		pre[level] = l.head
	}

	// Phase 2 (lines 12-16): build the private node, wire its level-0
	// and tower pointers, then publish bottom-up. Until the level-0
	// predecessor is updated no reader can observe the node; after it,
	// readers see a fully formed node at level 0 and possibly-later at
	// upper levels, which only affects search speed, never correctness.
	nn, slabs, bytes := l.alloc(h)
	nn.key, nn.val, nn.height = key, v, int32(h)
	nn.next.Store(pre[0].next.Load())
	for i := 1; i < h; i++ {
		nn.tower(i).Store(pre[i].tower(i).Load())
	}
	pre[0].next.Store(nn)
	for i := 1; i < h; i++ {
		pre[i].tower(i).Store(nn)
	}
	if h > top {
		l.top.Store(int32(h))
	}
	l.length.Add(1)

	// Remember the splice for the next (likely >=) insert.
	l.hint = pre
	for i := 0; i < h; i++ {
		l.hint[i] = nn
	}
	l.hintKey = key
	l.hintValid = true
	return slabs, bytes
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
// n.next again could observe a node the writer spliced in after n since,
// whose key may be below target.
func (l *List[K, V]) seekGE(target K) *node[K, V] {
	n := l.head
	for level := int(l.top.Load()) - 1; level > 0; level-- {
		for {
			next := n.tower(level).Load()
			if next == nil || next.key >= target {
				break
			}
			n = next
		}
	}
	for {
		next := n.next.Load()
		if next == nil || next.key >= target {
			return next
		}
		n = next
	}
}

// Min returns the smallest key in the list.
func (l *List[K, V]) Min() (K, V, bool) {
	n := l.head.next.Load()
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
	for n := l.seekGE(lo); n != nil && n.key <= hi; n = n.succ() {
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
	for n := l.seekGE(lo); n != nil; n = n.succ() {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// All calls fn for every entry in ascending order until fn returns false.
func (l *List[K, V]) All(fn func(key K, v V) bool) {
	for n := l.head.next.Load(); n != nil; n = n.succ() {
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
// must not have been evicted. An evicted entry leads back to the head, so
// a walk from it still terminates and sees keys in order, resuming at the
// first live entry not below it, but it skips the entries evicted with it.
// A holder that knows a bound at or above every eviction so far
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
	for level := int(l.top.Load()) - 1; level >= 0; level-- {
		for {
			next := n.link(level).Load()
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
// end of the list. It costs one atomic load unless c's entry was evicted;
// c itself does not move.
func (c Cursor[K, V]) Next() (Cursor[K, V], bool) {
	n := c.n.succ()
	return Cursor[K, V]{n}, n != nil
}

// EvictBefore unlinks every entry with key < bound and returns how many
// were removed. Only the single writer may call it.
//
// Eviction by watermark always removes a prefix of the key order, so the
// unlink is a head-pointer rewire: at every level the head's next pointer
// is advanced past the dying prefix. Then every evicted node's next
// pointers are pointed back at the head, whose key is the lowest K. So a
// reader that entered the prefix before the rewire still terminates
// normally: a descent steps onto the head (its key is below any target)
// and goes on from the head's new pointers, and a level-0 walk skips the
// head and resumes at the first live entry, in ascending order. It may
// observe some of the entries that were valid when its scan began, which
// is the anomaly the SWMR design explicitly permits (a scan concurrent with
// eviction behaves as if it ran just before the eviction, or partly).
// Readers that need entries below a bound must not run alongside an
// eviction past it.
//
// The redirect is what lets evicted memory go. Slabs fill in insertion
// order, so a straggler shares its slab with entries far newer than its
// key. Were an evicted node to keep its forward pointers, a slab pinned by
// one live entry would keep its evicted stragglers reachable, they their
// evicted successors in older slabs, those slabs' own stragglers theirs,
// and so on back through the whole history. Pointing at any other node
// than the head only moves the chain: that node is evicted in turn.
func (l *List[K, V]) EvictBefore(bound K) int {
	first := l.head.next.Load()
	if first == nil || first.key >= bound {
		return 0
	}
	// The splice hint may reference dying nodes, and an insert spliced
	// after one would be unreachable; drop it, and its references, which
	// would keep the dead prefix's slabs reachable until the next Put.
	l.hintValid = false
	l.hint = [MaxHeight]*node[K, V]{}
	// Rewire top-down so that a concurrent reader never descends from a
	// taller level into an already-unlinked shorter prefix.
	top := int(l.top.Load())
	for level := top - 1; level >= 0; level-- {
		n := l.head.link(level).Load()
		if n == nil || n.key >= bound {
			continue
		}
		for {
			next := n.link(level).Load()
			if next == nil || next.key >= bound {
				break
			}
			n = next
		}
		l.head.link(level).Store(n.link(level).Load())
	}
	// The tallest nodes may have gone with the prefix.
	for top > 1 && l.head.tower(top-1).Load() == nil {
		top--
	}
	l.top.Store(int32(top))
	// Count the dead prefix (writer-only walk over unlinked nodes) and
	// point each of its nodes back at the head.
	removed := 0
	for n := first; n != nil && n.key < bound; removed++ {
		next := n.next.Load()
		n.next.Store(l.head)
		for i := 1; i < int(n.height); i++ {
			n.tower(i).Store(l.head)
		}
		n = next
	}
	l.length.Add(int64(-removed))
	return removed
}

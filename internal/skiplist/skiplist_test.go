package skiplist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEmpty(t *testing.T) {
	l := New[int64, string](1)
	if l.Len() != 0 {
		t.Fatalf("empty list Len = %d", l.Len())
	}
	if _, ok := l.Get(5); ok {
		t.Fatal("Get on empty list returned ok")
	}
	if _, _, ok := l.Min(); ok {
		t.Fatal("Min on empty list returned ok")
	}
	if n := l.AscendRange(0, 100, func(int64, string) bool { return true }); n != 0 {
		t.Fatalf("AscendRange on empty visited %d", n)
	}
	if got := l.EvictBefore(10); got != 0 {
		t.Fatalf("EvictBefore on empty removed %d", got)
	}
}

func TestPutGetOrdered(t *testing.T) {
	l := New[int64, int](1)
	perm := rand.New(rand.NewSource(7)).Perm(1000)
	for _, v := range perm {
		l.Put(int64(v), v*10)
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", l.Len())
	}
	for i := 0; i < 1000; i++ {
		got, ok := l.Get(int64(i))
		if !ok || got != i*10 {
			t.Fatalf("Get(%d) = %d,%v", i, got, ok)
		}
	}
	if _, ok := l.Get(1000); ok {
		t.Fatal("Get(1000) should miss")
	}
	// Full iteration must be sorted.
	var keys []int64
	l.All(func(k int64, _ int) bool { keys = append(keys, k); return true })
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("All iteration out of order")
	}
	if len(keys) != 1000 {
		t.Fatalf("All visited %d keys", len(keys))
	}
}

func TestDuplicateKeysInsertionOrder(t *testing.T) {
	l := New[int64, int](2)
	for i := 0; i < 5; i++ {
		l.Put(7, i)
	}
	l.Put(6, -1)
	l.Put(8, -2)
	var vals []int
	l.AscendRange(7, 7, func(_ int64, v int) bool { vals = append(vals, v); return true })
	if len(vals) != 5 {
		t.Fatalf("visited %d duplicates, want 5", len(vals))
	}
	for i, v := range vals {
		if v != i {
			t.Fatalf("duplicates out of insertion order: %v", vals)
		}
	}
	// Get returns the first duplicate.
	if v, ok := l.Get(7); !ok || v != 0 {
		t.Fatalf("Get(7) = %d,%v; want first inserted 0", v, ok)
	}
}

func TestAscendRangeBounds(t *testing.T) {
	l := New[int64, int](3)
	for i := int64(0); i < 100; i += 2 { // even keys 0..98
		l.Put(i, int(i))
	}
	cases := []struct {
		lo, hi int64
		want   int
	}{
		{0, 98, 50},   // everything
		{1, 97, 48},   // interior, exclusive of endpoints not present
		{10, 10, 1},   // single present key
		{11, 11, 0},   // single absent key
		{-50, -1, 0},  // below range
		{99, 200, 0},  // above range
		{90, 1000, 5}, // upper tail
	}
	for _, c := range cases {
		n := 0
		l.AscendRange(c.lo, c.hi, func(int64, int) bool { n++; return true })
		if n != c.want {
			t.Errorf("AscendRange(%d,%d) visited %d, want %d", c.lo, c.hi, n, c.want)
		}
	}
	// Early stop.
	n := 0
	l.AscendRange(0, 98, func(int64, int) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d, want 7", n)
	}
}

func TestEvictBefore(t *testing.T) {
	l := New[int64, int](4)
	for i := int64(0); i < 100; i++ {
		l.Put(i, int(i))
	}
	if got := l.EvictBefore(40); got != 40 {
		t.Fatalf("EvictBefore(40) removed %d, want 40", got)
	}
	if l.Len() != 60 {
		t.Fatalf("Len after evict = %d, want 60", l.Len())
	}
	if k, _, ok := l.Min(); !ok || k != 40 {
		t.Fatalf("Min after evict = %d,%v; want 40", k, ok)
	}
	if _, ok := l.Get(39); ok {
		t.Fatal("evicted key still reachable from head")
	}
	if v, ok := l.Get(40); !ok || v != 40 {
		t.Fatal("surviving key lost")
	}
	// Evicting before the minimum is a no-op.
	if got := l.EvictBefore(10); got != 0 {
		t.Fatalf("second EvictBefore removed %d, want 0", got)
	}
	// Evict everything.
	if got := l.EvictBefore(1 << 40); got != 60 {
		t.Fatalf("final EvictBefore removed %d, want 60", got)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after total eviction", l.Len())
	}
	// List remains usable.
	l.Put(5, 5)
	if v, ok := l.Get(5); !ok || v != 5 {
		t.Fatal("list unusable after total eviction")
	}
}

func TestEvictBeforeDuplicates(t *testing.T) {
	l := New[int64, int](5)
	for i := 0; i < 10; i++ {
		l.Put(1, i)
		l.Put(2, i)
	}
	if got := l.EvictBefore(2); got != 10 {
		t.Fatalf("removed %d, want 10", got)
	}
	n := 0
	l.All(func(k int64, _ int) bool {
		if k != 2 {
			t.Fatalf("unexpected surviving key %d", k)
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("%d survivors, want 10", n)
	}
}

// TestQuickMatchesSortedSlice property-tests the list against a sorted
// reference for arbitrary insert sequences and range queries.
func TestQuickMatchesSortedSlice(t *testing.T) {
	f := func(keys []int16, lo, hi int16) bool {
		l := New[int64, int](99)
		ref := make([]int64, 0, len(keys))
		for i, k := range keys {
			l.Put(int64(k), i)
			ref = append(ref, int64(k))
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for _, k := range ref {
			if k >= int64(lo) && k <= int64(hi) {
				want++
			}
		}
		got := l.AscendRange(int64(lo), int64(hi), func(int64, int) bool { return true })
		return got == want && l.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvictionPrefix property-tests that eviction removes exactly the
// keys below the bound.
func TestQuickEvictionPrefix(t *testing.T) {
	f := func(keys []int16, bound int16) bool {
		l := New[int64, int](17)
		below := 0
		for i, k := range keys {
			l.Put(int64(k), i)
			if int64(k) < int64(bound) {
				below++
			}
		}
		removed := l.EvictBefore(int64(bound))
		if removed != below || l.Len() != len(keys)-below {
			return false
		}
		ok := true
		l.All(func(k int64, _ int) bool {
			if k < int64(bound) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSWMRConcurrentReaders stress-tests the single-writer/multi-reader
// contract: one writer inserts ascending timestamps and periodically evicts
// a prefix while readers continuously range-scan. Readers must always see
// internally consistent data: scans over a fixed immutable range (already
// fully inserted, never evicted) must return exactly that range.
func TestSWMRConcurrentReaders(t *testing.T) {
	l := New[int64, int64](11)

	// Phase 1: install an immutable "anchor" range [1_000_000, 1_000_999]
	// that the writer never evicts.
	const anchorLo, anchorHi = int64(1_000_000), int64(1_000_999)
	for k := anchorLo; k <= anchorHi; k++ {
		l.Put(k, k)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	errs := make(chan string, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Anchor scan must be exact.
				n, sum := 0, int64(0)
				last := int64(-1)
				l.AscendRange(anchorLo, anchorHi, func(k int64, v int64) bool {
					if k < last {
						errs <- "scan went backwards"
						return false
					}
					last = k
					n++
					sum += v
					return true
				})
				if n != 1000 {
					errs <- "anchor scan wrong cardinality"
					return
				}
				want := (anchorLo + anchorHi) * 1000 / 2
				if sum != want {
					errs <- "anchor scan wrong sum"
					return
				}
				// Scans over the churning region must stay sorted
				// and never crash.
				last = -1
				l.AscendRange(0, 500_000, func(k int64, _ int64) bool {
					if k < last {
						errs <- "churn scan out of order"
						return false
					}
					last = k
					return true
				})
			}
		}()
	}

	// Writer: churn below the anchor.
	for i := int64(0); i < 200_000; i++ {
		l.Put(i, i)
		if i%1024 == 1023 {
			l.EvictBefore(i - 512)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

func TestSeedZeroUsable(t *testing.T) {
	l := New[uint64, int](0)
	for i := uint64(0); i < 100; i++ {
		l.Put(i, int(i))
	}
	if l.Len() != 100 {
		t.Fatal("seed-0 list broken")
	}
}

func TestHeightDistribution(t *testing.T) {
	// Tower heights should be geometric-ish: most nodes at height 1 and
	// a non-trivial share above (sanity check on randomHeight, which a
	// broken xorshift would flatten to all-1 or all-max).
	l := New[int64, int](123)
	h1, hMore := 0, 0
	for i := 0; i < 10000; i++ {
		if h := l.randomHeight(); h == 1 {
			h1++
		} else {
			hMore++
		}
	}
	if h1 < 6000 || h1 > 9000 {
		t.Fatalf("height-1 fraction %d/10000 outside [0.6, 0.9]", h1)
	}
	if hMore == 0 {
		t.Fatal("no tall towers at all")
	}
}

func TestCursorBeforeThroughNext(t *testing.T) {
	l := New[int64, int](5)
	if c := l.Before(10); !c.Valid() || !c.AtHead() {
		t.Fatal("Before on an empty list is not the head")
	}
	if _, ok := l.Through(10).Next(); ok {
		t.Fatal("Next from the head of an empty list found an entry")
	}
	for _, k := range []int64{10, 20, 20, 30} {
		l.Put(k, int(k))
	}
	if c := l.Before(10); !c.AtHead() {
		t.Fatalf("Before(10) at key %d, want the head", c.Key())
	}
	for _, tc := range []struct {
		c    Cursor[int64, int]
		want int64
	}{
		{l.Before(11), 10}, {l.Before(20), 10}, {l.Before(21), 20},
		{l.Through(10), 10}, {l.Through(19), 10}, {l.Through(20), 20}, {l.Through(99), 30},
	} {
		if tc.c.AtHead() || tc.c.Key() != tc.want {
			t.Fatalf("cursor at %d, want %d", tc.c.Key(), tc.want)
		}
	}
	// Through(20) sits on the second 20: the last entry with key <= 20.
	c := l.Through(20)
	n, ok := c.Next()
	if !ok || n.Key() != 30 || n.Value() != 30 {
		t.Fatal("Next after Through(20) is not 30")
	}
	if _, ok := n.Next(); ok {
		t.Fatal("Next past the last entry")
	}
	// A cursor sees entries inserted after it was taken.
	l.Put(25, 25)
	if n, _ := c.Next(); n.Key() != 25 {
		t.Fatalf("Next after an insert = %d, want 25", n.Key())
	}
	var zero Cursor[int64, int]
	if zero.Valid() {
		t.Fatal("zero Cursor is valid")
	}
}

// TestCursorSWMR holds cursors across the writer's inserts and evictions:
// readers walk forward from saved positions (reseeking now and then, and
// keeping cursors whose entries the writer has since evicted) while one
// writer inserts ascending keys with stragglers and evicts prefixes. Every
// walk must terminate and see keys in non-decreasing order.
func TestCursorSWMR(t *testing.T) {
	l := New[int64, int64](13)
	const n = 100_000
	var done sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		done.Add(1)
		go func(seed int64) {
			defer done.Done()
			rng := rand.New(rand.NewSource(seed))
			c := l.Before(0)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				if iter%64 == 0 {
					c = l.Before(rng.Int63n(2 * n))
				}
				last := int64(-1 << 62)
				if !c.AtHead() {
					last = c.Key()
				}
				// Walk a bounded stretch, keeping the cursor where
				// it stops (possibly on an entry that gets evicted).
				for steps := 0; steps < 256; steps++ {
					nx, ok := c.Next()
					if !ok {
						break
					}
					if nx.Key() < last {
						errs <- "cursor walk went backwards"
						return
					}
					if nx.Value() != nx.Key()*3 {
						errs <- "cursor saw a torn entry"
						return
					}
					last = nx.Key()
					c = nx
				}
			}
		}(int64(r + 1))
	}
	rng := rand.New(rand.NewSource(99))
	for i := int64(0); i < n; i++ {
		k := 2 * i
		if i%7 == 3 {
			k -= rng.Int63n(600) // straggler behind the newest key
		}
		l.Put(k, k*3)
		if i%1024 == 1023 {
			l.EvictBefore(2*i - 1500)
		}
	}
	close(stop)
	done.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestPutReportsSlabBytes: Put reports exactly the slabs it allocates —
// node slabs doubling from minSlabSize and capped at maxSlabSize, and
// tower slabs of height-1 pointers per node taller than 1 growing the same
// way, a tower that does not fit starting the next one — and 0, 0 for
// every insert the current slabs had room for. The reported slab count is
// also every heap object Put allocates.
func TestPutReportsSlabBytes(t *testing.T) {
	heights := New[int64, float64](3) // same seed: the same height sequence
	node := int64(unsafe.Sizeof(node[int64, float64]{}))
	var nodeLen, nodeFree, towerLen, towerFree, towers int
	want, got := make([][2]int64, 0, 3000), make([][2]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		var slabs, bytes int64
		if nodeFree == 0 {
			nodeLen = min(max(2*nodeLen, minSlabSize), maxSlabSize)
			nodeFree = nodeLen
			slabs, bytes = slabs+1, bytes+int64(nodeLen)*node
		}
		nodeFree--
		if h := heights.randomHeight(); h > 1 {
			if towerFree < h-1 {
				towerLen = max(h-1, min(max(2*towerLen, minSlabSize), maxSlabSize))
				towerFree = towerLen
				towers++
				slabs, bytes = slabs+1, bytes+int64(towerLen*linkSize)
			}
			towerFree -= h - 1
		}
		want = append(want, [2]int64{slabs, bytes})
	}
	if towers < 4 || towerLen != maxSlabSize {
		t.Fatalf("only %d tower slabs, the last of %d pointers: the test misses the cap", towers, towerLen)
	}
	var slabs int64
	for _, w := range want {
		slabs += w[0]
	}
	// The runtime's own background work can add an allocation to the
	// process-wide count but never remove one, so the fewest of three
	// runs is compared.
	objs := int64(math.MaxInt64)
	for try := 0; try < 3; try++ {
		l := New[int64, float64](3)
		got = got[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 3000; i++ {
			slabs, bytes := l.Put(int64(i), 1)
			got = append(got, [2]int64{slabs, bytes})
		}
		runtime.ReadMemStats(&after)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("(slabs, bytes) per Put %v, want %v", got, want)
		}
		objs = min(objs, int64(after.Mallocs-before.Mallocs))
	}
	if objs != slabs {
		t.Fatalf("Put allocated %d heap objects, reported %d slabs", objs, slabs)
	}
}

// TestNodeSize pins the level-0 record of the time layer's lists: key,
// value, level-0 next pointer, tower pointer and height. A field added
// here is paid by every buffered entry.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node[int64, float64]{}); n > 40 {
		t.Fatalf("node[int64, float64] is %d B, want <= 40", n)
	}
}

// TestTopLevelTracksTallest: top is the tallest height among the live
// nodes, and the head holds nothing above it, as inserts raise it and
// evictions lower it. A reader holding a stale top, lower or higher,
// still finds every entry, since level 0 is always complete.
func TestTopLevelTracksTallest(t *testing.T) {
	l := New[int64, int](21)
	heights := New[int64, int](21) // same seed: the same height sequence
	if got := l.top.Load(); got != 1 {
		t.Fatalf("empty list top = %d, want 1", got)
	}
	// tallest returns the tallest live height, found by walking level 0.
	tallest := func() int {
		h := 1
		for n := l.head.next.Load(); n != nil; n = n.next.Load() {
			h = max(h, int(n.height))
		}
		return h
	}
	check := func(when string) {
		t.Helper()
		want := tallest()
		if got := int(l.top.Load()); got != want {
			t.Fatalf("%s: top = %d, want %d", when, got, want)
		}
		for level := 1; level < MaxHeight; level++ {
			if next := l.head.tower(level).Load(); (next != nil) != (level < want) {
				t.Fatalf("%s: head level %d holds %v with top %d", when, level, next, want)
			}
		}
	}
	drawn := 1
	for i := 0; i < 20_000; i++ {
		drawn = max(drawn, heights.randomHeight())
		l.Put(int64(2*i), i)
		if got := int(l.top.Load()); got != drawn {
			t.Fatalf("after %d puts top = %d, want %d", i+1, got, drawn)
		}
	}
	if drawn < 6 {
		t.Fatalf("20k inserts reached height %d only", drawn)
	}
	check("after the inserts")
	for _, bound := range []int64{10_000, 20_000, 30_000, 39_000, 39_990} {
		l.EvictBefore(bound)
		check(fmt.Sprintf("after EvictBefore(%d)", bound))
	}
	if got := int(l.top.Load()); got >= drawn {
		t.Fatalf("top %d after evicting all but 5 of 20k entries", got)
	}
	for k := int64(40_000); k < 42_000; k++ {
		l.Put(k, int(k))
	}
	check("after more inserts")
	for _, stale := range []int32{1, 2, MaxHeight} {
		l.top.Store(stale)
		for k := int64(40_000); k < 41_800; k += 37 {
			if v, ok := l.Get(k); !ok || v != int(k) {
				t.Fatalf("top %d: Get(%d) = %d, %v", stale, k, v, ok)
			}
			if c := l.Through(k); c.Key() != k {
				t.Fatalf("top %d: Through(%d) at %d", stale, k, c.Key())
			}
			if n := l.AscendRange(k, k+99, func(int64, int) bool { return true }); n != 100 {
				t.Fatalf("top %d: AscendRange(%d, %d) visited %d, want 100", stale, k, k+99, n)
			}
		}
	}
}

// fillWide inserts keys [from, to) into l in the wide workload's shape:
// key i arrives up to lateness behind, and the list is swept below
// i − lateness − window every half horizon, as the time-travel index's
// owners do.
func fillWide(l *List[int64, int], rng *rand.Rand, from, to int) {
	const lateness, window = 2000, 200
	for i := from; i < to; i++ {
		l.Put(int64(i)-rng.Int63n(lateness+1), i)
		if i%((lateness+window)/2) == 0 {
			l.EvictBefore(int64(i) - lateness - window)
		}
	}
}

// watchFirstSlabs inserts l's first 100 entries, which fill its first
// node slab and its first tower slab, and sets a finalizer on each of the
// two slabs. It returns channels closed when they run, and a cursor on the
// first node when hold is set.
func watchFirstSlabs(l *List[int64, int], rng *rand.Rand, hold bool) (nodes0, towers0 chan struct{}, c Cursor[int64, int]) {
	nodes0, towers0 = make(chan struct{}), make(chan struct{})
	fillWide(l, rng, 0, 1)
	runtime.SetFinalizer(&l.nodes[0], func(*node[int64, int]) { close(nodes0) })
	if hold {
		c = Cursor[int64, int]{&l.nodes[0]}
	}
	for i := 1; i < 100; i++ {
		watched := l.towers != nil
		fillWide(l, rng, i, i+1)
		if !watched && l.towers != nil {
			runtime.SetFinalizer(&l.towers[0], func(*atomic.Pointer[node[int64, int]]) { close(towers0) })
		}
	}
	if len(l.nodes) == minSlabSize || len(l.towers) == minSlabSize {
		panic("watchFirstSlabs: a first slab is still the current one")
	}
	return nodes0, towers0, c
}

// collected runs the collector until done is closed, giving up after a
// few cycles.
func collected(done chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(20 * time.Millisecond):
		}
	}
	return false
}

// TestEvictedSlabsAreCollected: once eviction passes the first node slab
// and the first tower slab, both are garbage, although stragglers mix old
// keys into every later slab; and a Cursor into the first node slab keeps
// it reachable, which is why a holder must drop cursors it no longer
// walks.
func TestEvictedSlabsAreCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := New[int64, int](31)
	nodes0, towers0, _ := watchFirstSlabs(l, rng, false)
	fillWide(l, rng, 100, 50_000)
	l.EvictBefore(50_000 - 2200)
	if !collected(nodes0) {
		t.Error("the first node slab outlived its evicted entries")
	}
	if !collected(towers0) {
		t.Error("the first tower slab outlived its evicted entries")
	}
	runtime.KeepAlive(l)

	l = New[int64, int](31)
	nodes0, _, c := watchFirstSlabs(l, rng, true)
	fillWide(l, rng, 100, 50_000)
	l.EvictBefore(50_000 - 2200)
	if collected(nodes0) {
		t.Fatal("a held cursor did not keep its entry's slab reachable")
	}
	// The evicted entry leads to the first live one.
	if n, ok := c.Next(); !ok || n.Key() < 50_000-2200 || c.Value() != 0 {
		t.Fatalf("the held cursor leads to %d, %v", n.Key(), ok)
	}
	c = Cursor[int64, int]{}
	if !collected(nodes0) {
		t.Error("the first node slab outlived the cursor into it")
	}
	runtime.KeepAlive(l)
	runtime.KeepAlive(c)
}

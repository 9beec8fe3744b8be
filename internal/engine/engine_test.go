package engine

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"oij/internal/agg"
	"oij/internal/tuple"
	"oij/internal/window"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Joiners != 1 || c.QueueCap != 8192 || c.WatermarkEvery != 256 {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c = Config{Joiners: 7, QueueCap: 16, WatermarkEvery: 3}.WithDefaults()
	if c.Joiners != 7 || c.QueueCap != 16 || c.WatermarkEvery != 3 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Joiners: 0, Window: window.Spec{Pre: 1}}).Validate(); err == nil {
		t.Fatal("zero joiners accepted")
	}
	if err := (Config{Joiners: 1}).Validate(); err == nil {
		t.Fatal("empty window accepted")
	}
	if err := (Config{Joiners: 1, Window: window.Spec{Pre: 1}}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestWatermarkTuples(t *testing.T) {
	wm := WatermarkTuple(12345)
	if !IsWatermark(wm) || wm.TS != 12345 {
		t.Fatalf("watermark tuple = %+v", wm)
	}
	if IsWatermark(tuple.Tuple{Side: tuple.Base}) || IsWatermark(tuple.Tuple{Side: tuple.Probe}) {
		t.Fatal("data tuple classified as watermark")
	}
}

func TestEmitModeString(t *testing.T) {
	if OnArrival.String() != "on-arrival" || OnWatermark.String() != "on-watermark" {
		t.Fatal("EmitMode strings wrong")
	}
}

// TestPushStallDetection fills a ring with no consumer: the blocked push
// must park (not busy-spin), the stall snapshot must show the ring wedged,
// and draining the ring must complete the push and clear the stall.
func TestPushStallDetection(t *testing.T) {
	cfg := Config{Joiners: 1, Window: window.Spec{Pre: 100}, QueueCap: 2}.WithDefaults()
	tr := NewTransport(cfg)
	for tr.Rings[0].TryPush(tuple.Tuple{}) {
	}
	done := make(chan struct{})
	go func() {
		tr.Push(0, tuple.Tuple{TS: 42})
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := tr.Stalls()
		if s.Parks > 0 && s.BlockedFor[0] > 0 {
			if w := s.Wedged(time.Nanosecond); len(w) != 1 || w[0] != 0 {
				t.Fatalf("wedged = %v", w)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall never detected: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	// Drain one slot; the parked push must complete and reset the stall.
	if _, ok := tr.Rings[0].TryPop(); !ok {
		t.Fatal("pop failed")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked push never completed")
	}
	if s := tr.Stalls(); s.BlockedFor[0] != 0 {
		t.Fatalf("stall not cleared: %+v", s)
	}
}

// TestTransportDelivery checks FIFO per ring, watermark broadcast, and the
// drain hook.
func TestTransportDelivery(t *testing.T) {
	cfg := Config{Joiners: 3, Window: window.Spec{Pre: 100, Lateness: 10}, WatermarkEvery: 4}.WithDefaults()
	tr := NewTransport(cfg)

	type seen struct {
		tuples []tuple.Time
		wms    []tuple.Time
		drain  atomic.Bool
	}
	all := make([]seen, 3)
	for i := 0; i < 3; i++ {
		i := i
		tr.Go(i, JoinerHooks{
			OnTuple:     func(tp tuple.Tuple) { all[i].tuples = append(all[i].tuples, tp.TS) },
			OnWatermark: func(wm tuple.Time) { all[i].wms = append(all[i].wms, wm) },
			OnDrained:   func() { all[i].drain.Store(true) },
		})
	}

	// 8 observed tuples -> two in-band watermark broadcasts (every 4).
	for i := 0; i < 8; i++ {
		ts := tuple.Time(100 * (i + 1))
		tr.Observe(ts)
		tr.Push(i%3, tuple.Tuple{TS: ts, Side: tuple.Probe})
	}
	tr.Finish()

	for i := range all {
		if !all[i].drain.Load() {
			t.Fatalf("joiner %d: OnDrained not called", i)
		}
		// Two periodic watermarks (maxTS-lateness) plus the final one.
		want := []tuple.Time{400 - 10, 800 - 10, FinalWatermark}
		if len(all[i].wms) != len(want) {
			t.Fatalf("joiner %d: watermarks %v", i, all[i].wms)
		}
		for k, wm := range want {
			if all[i].wms[k] != wm {
				t.Fatalf("joiner %d: watermark %d = %d, want %d", i, k, all[i].wms[k], wm)
			}
		}
		// FIFO per ring.
		if !sort.SliceIsSorted(all[i].tuples, func(a, b int) bool { return all[i].tuples[a] < all[i].tuples[b] }) {
			t.Fatalf("joiner %d: out of order %v", i, all[i].tuples)
		}
	}
	total := len(all[0].tuples) + len(all[1].tuples) + len(all[2].tuples)
	if total != 8 {
		t.Fatalf("delivered %d tuples, want 8", total)
	}
}

func TestTransportBusyTracking(t *testing.T) {
	cfg := Config{Joiners: 1, Window: window.Spec{Pre: 1}}.WithDefaults()
	tr := NewTransport(cfg)
	var busy atomic.Int64
	tr.Go(0, JoinerHooks{
		OnTuple:     func(tuple.Tuple) { time.Sleep(time.Millisecond) },
		OnWatermark: func(tuple.Time) {},
		Busy:        &busy,
	})
	for i := 0; i < 5; i++ {
		tr.Push(0, tuple.Tuple{TS: tuple.Time(i), Side: tuple.Probe})
	}
	tr.Finish()
	if busy.Load() < int64(4*time.Millisecond) {
		t.Fatalf("busy = %v, want >= ~5ms", time.Duration(busy.Load()))
	}
}

func TestPendingHeapOrdering(t *testing.T) {
	var h PendingHeap
	if _, ok := h.Min(); ok {
		t.Fatal("Min on empty heap")
	}
	if _, ok := h.PopIfBefore(100); ok {
		t.Fatal("pop on empty heap")
	}
	rng := rand.New(rand.NewSource(5))
	for _, ts := range rng.Perm(100) {
		h.Push(tuple.Tuple{TS: tuple.Time(ts)})
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	if m, ok := h.Min(); !ok || m.TS != 0 {
		t.Fatalf("Min = %+v", m)
	}
	// PopIfBefore respects the strict bound and yields ascending order.
	prev := tuple.Time(-1)
	popped := 0
	for {
		tp, ok := h.PopIfBefore(50)
		if !ok {
			break
		}
		if tp.TS <= prev {
			t.Fatalf("pop order violated: %d after %d", tp.TS, prev)
		}
		if tp.TS >= 50 {
			t.Fatalf("popped %d at bound 50", tp.TS)
		}
		prev = tp.TS
		popped++
	}
	if popped != 50 {
		t.Fatalf("popped %d, want 50", popped)
	}
	if h.Len() != 50 {
		t.Fatalf("remaining = %d", h.Len())
	}
}

// TestQuickPendingHeap property-tests heap behaviour against sorting.
func TestQuickPendingHeap(t *testing.T) {
	f := func(tss []int16, bound int16) bool {
		var h PendingHeap
		for _, ts := range tss {
			h.Push(tuple.Tuple{TS: tuple.Time(ts)})
		}
		var got []tuple.Time
		for {
			tp, ok := h.PopIfBefore(tuple.Time(bound))
			if !ok {
				break
			}
			got = append(got, tp.TS)
		}
		var want []tuple.Time
		for _, ts := range tss {
			if tuple.Time(ts) < tuple.Time(bound) {
				want = append(want, tuple.Time(ts))
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSinks(t *testing.T) {
	r := tuple.Result{BaseSeq: 3, Agg: 2, Matches: 1}
	NullSink{}.Emit(0, r) // must not panic

	var cs CountSink
	cs.Emit(0, r)
	cs.Emit(1, r)
	if cs.Count() != 2 {
		t.Fatalf("CountSink.Count = %d", cs.Count())
	}

	var col CollectSink
	col.Emit(0, r)
	col.Emit(0, tuple.Result{BaseSeq: 9})
	if len(col.Results()) != 2 {
		t.Fatal("CollectSink lost results")
	}
	if _, ok := col.ByBaseSeq()[9]; !ok {
		t.Fatal("ByBaseSeq missing entry")
	}

	ls := NewLatencySink(2)
	ls.Emit(0, r)
	// Values below 32 ns sit in one-wide histogram buckets, so the
	// merged quantiles are exact.
	ls.Record(0, 5)
	ls.Record(1, 15)
	if ls.Count() != 1 {
		t.Fatalf("LatencySink.Count = %d", ls.Count())
	}
	snap := ls.Snapshot()
	if snap.N != 2 || snap.Sum != 20 || snap.Quantile(0) != 5 || snap.Quantile(1) != 15 {
		t.Fatalf("LatencySink snapshot N=%d sum=%d p0=%d p100=%d", snap.N, snap.Sum, snap.Quantile(0), snap.Quantile(1))
	}
	// LatencySink satisfies the recorder interface engines probe for.
	var _ LatencyRecorder = ls
}

func TestStatsHelpers(t *testing.T) {
	s := NewStats(2)
	s.Processed[0].Store(30)
	s.Processed[1].Store(10)
	if s.TotalProcessed() != 40 {
		t.Fatalf("TotalProcessed = %d", s.TotalProcessed())
	}
	loads := s.Loads()
	if loads[0] != 30 || loads[1] != 10 {
		t.Fatalf("Loads = %v", loads)
	}
	s.Busy[0].Store(int64(10 * time.Second))
	s.Breakdown[0].Lookup = 3 * time.Second
	s.Breakdown[0].Match = 2 * time.Second
	FillOther(s)
	if s.Breakdown[0].Other != 5*time.Second {
		t.Fatalf("Other = %v", s.Breakdown[0].Other)
	}
	// Other never goes negative.
	s.Busy[1].Store(int64(time.Second))
	s.Breakdown[1].Lookup = 2 * time.Second
	FillOther(s)
	if s.Breakdown[1].Other != 0 {
		t.Fatalf("negative Other: %v", s.Breakdown[1].Other)
	}
	s.Effect[0].Observe(1, 2)
	s.Effect[1].Observe(1, 1)
	if v := s.MergedEffectiveness(); v != 0.75 {
		t.Fatalf("merged effectiveness = %g", v)
	}
	if s.MergedBreakdown().Lookup != 5*time.Second {
		t.Fatal("merged breakdown wrong")
	}
}

func TestHashKeyDistribution(t *testing.T) {
	// Sequential keys must spread evenly over a small modulus.
	const buckets = 16
	counts := make([]int, buckets)
	for k := tuple.Key(0); k < 16000; k++ {
		counts[HashKey(k)%buckets]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d has %d of 16000 (expected ~1000)", b, c)
		}
	}
	if HashKey(1) == HashKey(2) {
		t.Fatal("trivial collision")
	}
}

// TestEnginesImplementInterface pins the Engine contract at compile time
// via the harness-built variants (done in package harness); here we check
// the agg import is wired for the config.
func TestConfigAgg(t *testing.T) {
	c := Config{Joiners: 1, Window: window.Spec{Pre: 1}, Agg: agg.Max}
	if c.Agg != agg.Max {
		t.Fatal("agg not carried")
	}
}

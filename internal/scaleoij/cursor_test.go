package scaleoij

import (
	"math"
	"testing"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/window"
)

// The edge-cursor tests check joinIncremental's cursor walk against the
// reference joins. Each also asserts, through the joiners' counters, that
// the path it targets really ran, so a silent fallback to seeking cannot
// pass it.

// sameResults fails t unless got and want hold the same bases with equal
// match counts and aggregates (NaN equal to NaN: an empty avg).
func sameResults(t *testing.T, got, want map[uint64]tuple.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for seq, wr := range want {
		g, ok := got[seq]
		if !ok {
			t.Fatalf("base %d: no result", seq)
		}
		bothNaN := math.IsNaN(g.Agg) && math.IsNaN(wr.Agg)
		if g.Matches != wr.Matches || !bothNaN && math.Abs(g.Agg-wr.Agg) > 1e-6*(1+math.Abs(wr.Agg)) {
			t.Fatalf("base %d: got %+v want %+v", seq, g, wr)
		}
	}
}

// walked sums the cursor walks over every joiner.
func walked(e *Engine) (walks, evictFalls, folds int) {
	for _, j := range e.js {
		walks += j.walks
		evictFalls += j.evictFalls
		folds += j.folds
	}
	return
}

// TestCursorArrivalExact: one joiner in arrival mode over in-order bases,
// with lateness 13× the window (workload C's shape), answers exactly what
// refjoin.Arrival does for every invertible aggregate, and nearly every
// base slides its window by walking the cursors.
func TestCursorArrivalExact(t *testing.T) {
	w := window.Spec{Pre: 300, Fol: 0, Lateness: 3900}
	stream := gen(t, 15_000, 6, w, true)
	for _, fn := range []agg.Func{agg.Sum, agg.Count, agg.Avg} {
		t.Run(fn.String(), func(t *testing.T) {
			sink := &engine.CollectSink{}
			e := New(engine.Config{Joiners: 1, Window: w, Agg: fn, Mode: engine.OnArrival}, Options{Incremental: true}, sink)
			replay(e, stream)
			sameResults(t, sink.ByBaseSeq(), refjoin.ByBaseSeq(refjoin.Arrival(stream, w, fn)))
			bases := len(sink.ByBaseSeq())
			walks, _, _ := walked(e)
			t.Logf("%d of %d bases walked", walks, bases)
			if walks < bases*9/10 {
				t.Fatalf("%d of %d bases walked the cursors", walks, bases)
			}
		})
	}
}

// TestCursorQuietKeyEvictFallback: key 1's probes stop for a stretch while
// its bases continue, so its left cursor stays on its last probe until the
// eviction bound passes it; the walk must refuse (the entry may have been
// unlinked) and reseek, and stay exact when the probes resume. Key 3 stops
// altogether, and a later sweep must drop its cursors.
func TestCursorQuietKeyEvictFallback(t *testing.T) {
	w := window.Spec{Pre: 100, Fol: 0, Lateness: 50}
	var stream []tuple.Tuple
	add := func(k tuple.Key, ts tuple.Time, side tuple.Side) {
		stream = append(stream, tuple.Tuple{Key: k, TS: ts, Val: float64(ts%7 + 1), Side: side, Seq: uint64(len(stream))})
	}
	for ts := tuple.Time(0); ts < 10_000; ts++ {
		add(2, ts, tuple.Probe)
		if ts%4 == 0 {
			add(2, ts, tuple.Base)
		}
		if ts < 3000 || ts >= 6000 {
			add(1, ts, tuple.Probe)
		}
		if ts%4 == 2 {
			add(1, ts, tuple.Base)
		}
		if ts < 2000 {
			add(3, ts, tuple.Probe)
			if ts%4 == 1 {
				add(3, ts, tuple.Base)
			}
		}
	}
	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 1, Window: w, Agg: agg.Sum, Mode: engine.OnArrival, WatermarkEvery: 16}, Options{Incremental: true}, sink)
	replay(e, stream)
	sameResults(t, sink.ByBaseSeq(), refjoin.ByBaseSeq(refjoin.Arrival(stream, w, agg.Sum)))
	walks, evictFalls, _ := walked(e)
	t.Logf("%d walks, %d eviction fallbacks", walks, evictFalls)
	if walks == 0 || evictFalls == 0 {
		t.Fatalf("walks %d, eviction fallbacks %d: want both > 0", walks, evictFalls)
	}
	ent := e.js[0].inc[3]
	if ent == nil || len(ent.edges) != 1 {
		t.Fatal("key 3 has no edge")
	}
	if ent.edges[0].left.Valid() || ent.edges[0].right.Valid() {
		t.Fatal("a key quiet for many sweeps still holds its cursors")
	}
}

// TestCursorFoldHeavy: with disorder close to a long window, most late
// probes land inside the cached window and are folded into it; the walks
// must then subtract each exactly once and never add it.
func TestCursorFoldHeavy(t *testing.T) {
	w := window.Spec{Pre: 2000, Fol: 0, Lateness: 1500}
	stream := gen(t, 12_000, 2, w, true)
	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 1, Window: w, Agg: agg.Sum, Mode: engine.OnArrival}, Options{Incremental: true}, sink)
	replay(e, stream)
	sameResults(t, sink.ByBaseSeq(), refjoin.ByBaseSeq(refjoin.Arrival(stream, w, agg.Sum)))
	walks, _, folds := walked(e)
	bases := len(sink.ByBaseSeq())
	t.Logf("%d of %d bases walked, %d of %d probes folded", walks, bases, folds, len(stream)-bases)
	if walks < bases*9/10 || folds < (len(stream)-bases)/4 {
		t.Fatalf("%d of %d bases walked, %d of %d probes folded", walks, bases, folds, len(stream)-bases)
	}
}

// TestCursorWatermarkMultiJoiner: watermark mode with shared processing
// and aggressive rebalancing, so keys' teams grow past one joiner and the
// cursors walk several members' indexes; answers stay exact against
// refjoin.EventTime.
func TestCursorWatermarkMultiJoiner(t *testing.T) {
	w := window.Spec{Pre: 800, Fol: 100, Lateness: 150}
	stream := gen(t, 20_000, 3, w, true)
	o := Default()
	o.rescheduleEvery = 1024
	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 4, Window: w, Agg: agg.Sum, Mode: engine.OnWatermark}, o, sink)
	replay(e, stream)
	sameResults(t, sink.ByBaseSeq(), refjoin.ByBaseSeq(refjoin.EventTime(stream, w, agg.Sum)))
	walks, _, _ := walked(e)
	multi := false
	for _, j := range e.js {
		for _, ent := range j.inc {
			multi = multi || len(ent.edges) > 1
		}
	}
	bases := len(sink.ByBaseSeq())
	t.Logf("%d of %d bases walked", walks, bases)
	if walks < bases/2 || !multi {
		t.Fatalf("%d of %d bases walked; an entry with several members' cursors: %v", walks, bases, multi)
	}
}

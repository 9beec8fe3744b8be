package scaleoij

import (
	"math"
	"testing"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/metrics"
	"oij/internal/refjoin"
	"oij/internal/sched"
	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/workload"
)

func replay(e engine.Engine, tuples []tuple.Tuple) {
	e.Start()
	for _, t := range tuples {
		e.Ingest(t)
	}
	e.Drain()
}

func gen(t testing.TB, n, keys int, w window.Spec, orderedBase bool) []tuple.Tuple {
	t.Helper()
	wl := workload.Config{
		Name: "scale-test", N: n, EventRate: 1_000_000, Keys: keys,
		BaseShare: 0.5, Window: w, Disorder: w.Lateness,
		OrderedBase: orderedBase, Seed: 33,
	}
	ts, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{DynamicSchedule: true}.withDefaults()
	if !o.SharedProcessing {
		t.Fatal("DynamicSchedule did not imply SharedProcessing")
	}
	if o.rescheduleEvery <= 0 {
		t.Fatal("rescheduleEvery default missing")
	}
	d := Default()
	if !d.SharedProcessing || !d.DynamicSchedule || !d.Incremental {
		t.Fatalf("Default() = %+v", d)
	}
}

func TestTooManyJoinersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for joiners > mask width")
		}
	}()
	New(engine.Config{Joiners: sched.MaxJoiners + 1, Window: window.Spec{Pre: 1}}, Default(), engine.NullSink{})
}

// TestIncrementalEqualsFullWatermark: with deterministic watermark-mode
// semantics, the incremental engine must produce bit-equal match counts
// and numerically equal aggregates to the non-incremental one.
func TestIncrementalEqualsFullWatermark(t *testing.T) {
	w := window.Spec{Pre: 2000, Fol: 500, Lateness: 300}
	stream := gen(t, 40_000, 12, w, false)
	results := map[bool]map[uint64]tuple.Result{}
	for _, inc := range []bool{false, true} {
		o := Default()
		o.Incremental = inc
		sink := &engine.CollectSink{}
		e := New(engine.Config{Joiners: 4, Window: w, Agg: agg.Sum, Mode: engine.OnWatermark}, o, sink)
		replay(e, stream)
		results[inc] = sink.ByBaseSeq()
	}
	if len(results[true]) != len(results[false]) {
		t.Fatalf("cardinality: inc %d vs full %d", len(results[true]), len(results[false]))
	}
	for seq, full := range results[false] {
		inc := results[true][seq]
		if inc.Matches != full.Matches || math.Abs(inc.Agg-full.Agg) > 1e-6*(1+math.Abs(full.Agg)) {
			t.Fatalf("base %d: incremental %+v vs full %+v", seq, inc, full)
		}
	}
}

// TestArrivalIncrementalExactSingleJoiner: with one joiner, arrival-mode
// incremental is exact even under disorder (interior late probes fold into
// the cached aggregate).
func TestArrivalIncrementalExactSingleJoiner(t *testing.T) {
	w := window.Spec{Pre: 1500, Fol: 0, Lateness: 400}
	stream := gen(t, 30_000, 6, w, false) // disordered bases too
	want := refjoin.ByBaseSeq(refjoin.Arrival(stream, w, agg.Sum))

	o := Options{Incremental: true}
	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 1, Window: w, Agg: agg.Sum, Mode: engine.OnArrival}, o, sink)
	replay(e, stream)
	got := sink.ByBaseSeq()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for seq, wr := range want {
		g := got[seq]
		if g.Matches != wr.Matches || math.Abs(g.Agg-wr.Agg) > 1e-6*(1+math.Abs(wr.Agg)) {
			t.Fatalf("base %d: got %+v want %+v", seq, g, wr)
		}
	}
}

// TestNonInvertibleSlidingExact: min/max run through the two-stacks
// sliding path when Incremental is requested and stay exact.
func TestNonInvertibleSlidingExact(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	stream := gen(t, 20_000, 5, w, true)
	want := refjoin.ByBaseSeq(refjoin.EventTime(stream, w, agg.Max))

	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 3, Window: w, Agg: agg.Max, Mode: engine.OnWatermark}, Default(), sink)
	replay(e, stream)
	for seq, wr := range want {
		g := sink.ByBaseSeq()[seq]
		if g.Matches != wr.Matches {
			t.Fatalf("base %d: got %+v want %+v", seq, g, wr)
		}
		if wr.Matches > 0 && math.Abs(g.Agg-wr.Agg) > 1e-9 {
			t.Fatalf("base %d: max %g want %g", seq, g.Agg, wr.Agg)
		}
	}
}

// TestSlidingArrivalSingleJoiner: arrival-mode min over an ordered-base
// stream with late probes; interior inserts force sliding rebuilds, which
// must stay exact against the arrival reference.
func TestSlidingArrivalSingleJoiner(t *testing.T) {
	w := window.Spec{Pre: 1200, Fol: 0, Lateness: 300}
	stream := gen(t, 25_000, 5, w, true)
	want := refjoin.ByBaseSeq(refjoin.Arrival(stream, w, agg.Min))

	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 1, Window: w, Agg: agg.Min, Mode: engine.OnArrival}, Options{Incremental: true}, sink)
	replay(e, stream)
	got := sink.ByBaseSeq()
	for seq, wr := range want {
		g := got[seq]
		if g.Matches != wr.Matches {
			t.Fatalf("base %d: %d matches, want %d", seq, g.Matches, wr.Matches)
		}
		if wr.Matches > 0 && math.Abs(g.Agg-wr.Agg) > 1e-9 {
			t.Fatalf("base %d: min %g want %g", seq, g.Agg, wr.Agg)
		}
	}
}

// TestDynamicScheduleBalances: on a tiny key set the dynamic schedule must
// spread tuples far more evenly than the static baseline.
func TestDynamicScheduleBalances(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	stream := gen(t, 150_000, 2, w, true)

	unb := map[bool]float64{}
	for _, dyn := range []bool{false, true} {
		o := Options{SharedProcessing: true, DynamicSchedule: dyn, rescheduleEvery: 8192}
		e := New(engine.Config{Joiners: 8, Window: w, Agg: agg.Sum}, o, engine.NullSink{})
		replay(e, stream)
		unb[dyn] = metrics.Unbalancedness(e.Stats().Loads())
		if dyn && e.Stats().Extra["reschedules"] == 0 {
			t.Fatal("dynamic schedule never rescheduled")
		}
	}
	if unb[true] >= unb[false]/2 {
		t.Fatalf("dynamic unbalancedness %.3f not well below static %.3f", unb[true], unb[false])
	}
}

// TestSharedProcessingCorrectUnderRebalance: results stay exact while the
// schedule is actively changing (watermark mode, aggressive rescheduling).
func TestSharedProcessingCorrectUnderRebalance(t *testing.T) {
	w := window.Spec{Pre: 800, Fol: 0, Lateness: 150}
	stream := gen(t, 60_000, 3, w, false)
	want := refjoin.ByBaseSeq(refjoin.EventTime(stream, w, agg.Sum))

	o := Default()
	o.rescheduleEvery = 2048 // rebalance ~30 times during the run
	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 6, Window: w, Agg: agg.Sum, Mode: engine.OnWatermark}, o, sink)
	replay(e, stream)

	got := sink.ByBaseSeq()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	bad := 0
	for seq, wr := range want {
		g := got[seq]
		if g.Matches != wr.Matches || math.Abs(g.Agg-wr.Agg) > 1e-6*(1+math.Abs(wr.Agg)) {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d results wrong under active rebalancing", bad, len(want))
	}
}

// TestEvictionRuns: long stream with small windows must evict.
func TestEvictionRuns(t *testing.T) {
	w := window.Spec{Pre: 500, Fol: 0, Lateness: 100}
	stream := gen(t, 120_000, 8, w, true)
	e := New(engine.Config{Joiners: 2, Window: w, Agg: agg.Sum}, Default(), engine.NullSink{})
	replay(e, stream)
	if e.Stats().Evicted.Load() == 0 {
		t.Fatal("no eviction over a long stream")
	}
	var live int
	for _, j := range e.js {
		live += j.ix.Len()
	}
	probes := len(stream) - workload.CountBase(stream)
	if live > probes/10 {
		t.Fatalf("index retains %d of %d probes", live, probes)
	}
}

// TestEffectivenessIsOne: the time-travel index never visits out-of-window
// tuples, so instrumented effectiveness is 1 regardless of lateness.
func TestEffectivenessIsOne(t *testing.T) {
	w := window.Spec{Pre: 500, Fol: 0, Lateness: 5000} // lateness >> window
	stream := gen(t, 40_000, 8, w, true)
	cfg := engine.Config{Joiners: 2, Window: w, Agg: agg.Sum, Instrument: true}
	o := Default()
	o.Incremental = false // isolate the index property
	e := New(cfg, o, engine.NullSink{})
	replay(e, stream)
	if eff := e.Stats().MergedEffectiveness(); eff < 0.999 {
		t.Fatalf("effectiveness = %g, want 1 (index scans only in-window)", eff)
	}
}

// TestLastValueExact: OpenMLDB's LAST JOIN semantics (most recent matching
// row) through the two-stacks sliding path, against the reference.
func TestLastValueExact(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 0}
	wl := workload.Config{
		Name: "last-test", N: 20_000, EventRate: 400_000, Keys: 6,
		BaseShare: 0.5, Window: w, Disorder: 0, Seed: 77,
	}
	stream, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := refjoin.ByBaseSeq(refjoin.EventTime(stream, w, agg.Last))

	sink := &engine.CollectSink{}
	e := New(engine.Config{Joiners: 3, Window: w, Agg: agg.Last, Mode: engine.OnWatermark}, Default(), sink)
	replay(e, stream)
	got := sink.ByBaseSeq()
	for seq, wr := range want {
		g := got[seq]
		if g.Matches != wr.Matches {
			t.Fatalf("base %d: %d matches, want %d", seq, g.Matches, wr.Matches)
		}
		if wr.Matches > 0 && g.Agg != wr.Agg {
			t.Fatalf("base %d: last = %g, want %g", seq, g.Agg, wr.Agg)
		}
	}
}

package splitjoin

import (
	"math"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/metrics"
	"oij/internal/refjoin"
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

func gen(t *testing.T, n, keys int, w window.Spec) []tuple.Tuple {
	t.Helper()
	wl := workload.Config{
		Name: "split-test", N: n, EventRate: 1_000_000, Keys: keys,
		BaseShare: 0.5, Window: w, Disorder: w.Lateness, Seed: 17,
	}
	ts, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestBroadcastAccounting: every data tuple is shipped to all joiners.
func TestBroadcastAccounting(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	stream := gen(t, 5000, 4, w)
	e := New(engine.Config{Joiners: 4, Window: w, Agg: agg.Sum}, engine.NullSink{})
	replay(e, stream)
	if got := e.Stats().Extra["broadcast"]; got != int64(len(stream)*4) {
		t.Fatalf("broadcast = %d, want %d", got, len(stream)*4)
	}
}

// TestRoundRobinStorageBalance: joiners own equal probe shares and process
// every base, so Processed is flat regardless of key skew — SplitJoin's
// defining property.
func TestRoundRobinStorageBalance(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	stream := gen(t, 60_000, 1, w) // a single key: worst case for key partitioning
	e := New(engine.Config{Joiners: 4, Window: w, Agg: agg.Sum}, engine.NullSink{})
	replay(e, stream)
	if unb := metrics.Unbalancedness(e.Stats().Loads()); unb > 0.05 {
		t.Fatalf("unbalancedness %.3f on single-key stream, want ~0", unb)
	}
}

// TestMergerExactlyOnce: one merged result per base tuple, none duplicated
// and none lost, across both modes.
func TestMergerExactlyOnce(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	stream := gen(t, 20_000, 6, w)
	bases := workload.CountBase(stream)
	for _, mode := range []engine.EmitMode{engine.OnArrival, engine.OnWatermark} {
		sink := &engine.CollectSink{}
		e := New(engine.Config{Joiners: 5, Window: w, Agg: agg.Sum, Mode: mode}, sink)
		replay(e, stream)
		rs := sink.Results()
		if len(rs) != bases {
			t.Fatalf("%v: %d results for %d bases", mode, len(rs), bases)
		}
		seen := map[uint64]bool{}
		for _, r := range rs {
			if seen[r.BaseSeq] {
				t.Fatalf("%v: duplicate result for base %d", mode, r.BaseSeq)
			}
			seen[r.BaseSeq] = true
		}
	}
}

// TestPartialMergeMatchesReference: the J partial aggregates recombine to
// the exact event-time join, including for the non-invertible max.
func TestPartialMergeMatchesReference(t *testing.T) {
	w := window.Spec{Pre: 1500, Fol: 200, Lateness: 300}
	stream := gen(t, 25_000, 7, w)
	for _, fn := range []agg.Func{agg.Sum, agg.Max} {
		want := refjoin.ByBaseSeq(refjoin.EventTime(stream, w, fn))
		sink := &engine.CollectSink{}
		e := New(engine.Config{Joiners: 6, Window: w, Agg: fn, Mode: engine.OnWatermark}, sink)
		replay(e, stream)
		got := sink.ByBaseSeq()
		for seq, wr := range want {
			g := got[seq]
			if g.Matches != wr.Matches {
				t.Fatalf("%v base %d: %d matches, want %d", fn, seq, g.Matches, wr.Matches)
			}
			if wr.Matches > 0 && math.Abs(g.Agg-wr.Agg) > 1e-6*(1+math.Abs(wr.Agg)) {
				t.Fatalf("%v base %d: agg %g, want %g", fn, seq, g.Agg, wr.Agg)
			}
		}
	}
}

// TestEviction: round-robin stores are swept like any other buffer.
func TestEviction(t *testing.T) {
	w := window.Spec{Pre: 500, Fol: 0, Lateness: 100}
	stream := gen(t, 100_000, 4, w)
	e := New(engine.Config{Joiners: 3, Window: w, Agg: agg.Sum}, engine.NullSink{})
	replay(e, stream)
	if e.Stats().Evicted.Load() == 0 {
		t.Fatal("no eviction over a long stream")
	}
}

// TestInstrumentation: the split/store/process pattern reports breakdown
// and (full-scan) effectiveness below 1 under lateness.
func TestInstrumentation(t *testing.T) {
	w := window.Spec{Pre: 500, Fol: 0, Lateness: 2000}
	stream := gen(t, 40_000, 4, w)
	e := New(engine.Config{Joiners: 2, Window: w, Agg: agg.Sum, Instrument: true}, engine.NullSink{})
	replay(e, stream)
	st := e.Stats()
	if st.MergedBreakdown().Lookup == 0 {
		t.Fatal("lookup breakdown not populated")
	}
	if eff := st.MergedEffectiveness(); eff <= 0 || eff >= 1 {
		t.Fatalf("effectiveness = %g, want in (0,1) under lateness", eff)
	}
}

// TestLatencyRecording: the merger records latency for stamped bases.
func TestLatencyRecording(t *testing.T) {
	w := window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	ls := engine.NewLatencySink(1)
	e := New(engine.Config{Joiners: 3, Window: w, Agg: agg.Sum}, ls)
	e.Start()
	e.Ingest(tuple.Tuple{TS: 10, Key: 1, Side: tuple.Probe, Val: 1})
	e.Ingest(tuple.Tuple{TS: 20, Key: 1, Side: tuple.Base, Seq: 0, Arrival: time.Now()})
	e.Drain()
	if ls.Snapshot().Quantile(0.5) <= 0 {
		t.Fatal("no latency recorded")
	}
}

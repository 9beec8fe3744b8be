package engine_test

import (
	"math"
	"syscall"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/workload"
)

// processCPU returns the CPU time (user + system) the test process has
// used so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowSpec is the join window every test here uses.
func windowSpec() window.Spec { return window.Spec{Pre: 500, Fol: 0, Lateness: 200} }

// drainWithin runs Drain and fails the test if it does not return in d.
func drainWithin(t *testing.T, eng engine.Engine, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		eng.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: Drain did not return within %v", eng.Name(), d)
	}
}

// TestEnginesParkWhenIdle: a started engine with no input parks its
// joiners (and SplitJoin its merger) instead of polling, so it burns next
// to no CPU, and Drain still wakes and stops them promptly.
func TestEnginesParkWhenIdle(t *testing.T) {
	const span = 300 * time.Millisecond
	for _, name := range []string{harness.ScaleOIJ, harness.KeyOIJ, harness.SplitJoin, harness.OpenMLDB} {
		cfg := engine.Config{Joiners: 2, Window: windowSpec(), Agg: agg.Sum}
		eng, err := harness.Build(name, cfg, &engine.CountSink{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		time.Sleep(20 * time.Millisecond) // past the spin budget
		c0, t0 := processCPU(t), time.Now()
		time.Sleep(span)
		cores := float64(processCPU(t)-c0) / float64(time.Since(t0))
		if cores >= 0.2 {
			t.Errorf("%s: idle engine used %.2f cores over %v, want < 0.2", name, cores, span)
		}
		drainWithin(t, eng, time.Second)
	}
}

// TestEnginesWakeOnBursts feeds each engine bursts of tuples separated by
// idle gaps long enough for every consumer to park, ending each burst
// with a heartbeat as a serving driver does. After every burst the
// engine must consume everything it was given within a second — a lost
// wakeup would leave a tuple or a watermark sitting in a parked joiner's
// ring — and the final answers must match the refjoin oracle exactly as
// the harness differential tests require: exact event-time answers at 2
// joiners, arrival answers where arrival order is total.
func TestEnginesWakeOnBursts(t *testing.T) {
	wl := workload.Config{
		Name: "bursts", N: 6000, EventRate: 1e6, Keys: 32, BaseShare: 0.4,
		Window: windowSpec(), Disorder: 200, Seed: 11,
	}
	cases := []struct {
		name    string
		joiners int
		mode    engine.EmitMode
		inOrder bool
	}{
		{harness.KeyOIJ, 2, engine.OnWatermark, false},
		{harness.ScaleOIJ, 2, engine.OnWatermark, false},
		{harness.SplitJoin, 2, engine.OnWatermark, false},
		{harness.SplitJoin, 2, engine.OnArrival, false},
		{harness.OpenMLDB, 1, engine.OnArrival, true},
	}
	for _, c := range cases {
		w := wl
		if c.inOrder {
			w.Disorder = 0
		}
		tuples, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want := refjoin.EventTime(tuples, w.Window, agg.Sum)
		if c.mode == engine.OnArrival {
			want = refjoin.Arrival(tuples, w.Window, agg.Sum)
		}

		sink := &engine.CollectSink{}
		eng, err := harness.Build(c.name, engine.Config{Joiners: c.joiners, Window: w.Window, Agg: agg.Sum, Mode: c.mode}, sink)
		if err != nil {
			t.Fatal(err)
		}
		ctx := c.name + "/" + c.mode.String()
		eng.Start()
		bases := 0
		for i := 0; i < len(tuples); i += 400 {
			time.Sleep(5 * time.Millisecond)
			for _, tp := range tuples[i:min(i+400, len(tuples))] {
				if tp.Side == tuple.Base {
					bases++
				}
				eng.Ingest(tp)
			}
			eng.Heartbeat()
			waitConsumed(t, ctx, eng, sink, c.mode, bases)
		}
		drainWithin(t, eng, time.Second)
		compareOracle(t, ctx, sink.ByBaseSeq(), refjoin.ByBaseSeq(want))
	}
}

// waitConsumed waits up to a second for every joiner ring to empty and, in
// arrival mode, for every base ingested so far to have been answered
// (which covers SplitJoin's merger as well as the joiners).
func waitConsumed(t *testing.T, ctx string, eng engine.Engine, sink *engine.CollectSink, mode engine.EmitMode, bases int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		queued := 0
		for _, d := range eng.(engine.Introspector).QueueDepths() {
			queued += d
		}
		answered := bases
		if mode == engine.OnArrival {
			answered = len(sink.Results())
		}
		if queued == 0 && answered == bases {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stuck for 1s with %d tuples queued and %d/%d bases answered (lost wakeup)", ctx, queued, answered, bases)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// compareOracle requires exact match counts and aggregates within 1e-6
// relative, like the harness differential tests.
func compareOracle(t *testing.T, ctx string, got, want map[uint64]tuple.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, oracle has %d", ctx, len(got), len(want))
	}
	for seq, w := range want {
		g, ok := got[seq]
		if !ok {
			t.Fatalf("%s: missing result for base %d", ctx, seq)
		}
		if g.Matches != w.Matches || math.Abs(g.Agg-w.Agg) > 1e-6*math.Max(1, math.Abs(w.Agg)) {
			t.Fatalf("%s: base %d got (agg=%g n=%d) want (agg=%g n=%d)", ctx, seq, g.Agg, g.Matches, w.Agg, w.Matches)
		}
	}
}

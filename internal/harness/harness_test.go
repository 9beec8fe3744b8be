package harness

import (
	"math"
	"testing"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/refjoin"
	"oij/internal/sched"
	"oij/internal/window"
	"oij/internal/workload"
)

// smallWorkload is a quick synthetic workload exercising disorder.
func smallWorkload(n int) workload.Config {
	return workload.Config{
		Name:      "test",
		N:         n,
		EventRate: 1_000_000,
		Keys:      16,
		BaseShare: 0.5,
		Window:    window.Spec{Pre: 500, Fol: 0, Lateness: 100},
		Disorder:  100,
		Seed:      123,
	}
}

func TestBuildUnknownEngine(t *testing.T) {
	_, err := Build("nope", engine.Config{Joiners: 1, Window: window.Spec{Pre: 1}}, engine.NullSink{})
	if err == nil {
		t.Fatal("expected error for unknown engine name")
	}
}

// TestBuildTooManyJoiners: a Scale-OIJ variant asked for more joiners
// than its read-set masks hold is an error, not a panic. Build starts no
// goroutines, so nothing needs stopping.
func TestBuildTooManyJoiners(t *testing.T) {
	cfg := engine.Config{Joiners: sched.MaxJoiners + 1, Window: window.Spec{Pre: 1}}
	for _, name := range []string{ScaleOIJ, ScaleOIJNoInc, ScaleOIJNoDyn, ScaleOIJStatic, ScaleOIJIncOnly} {
		if _, err := Build(name, cfg, engine.NullSink{}); err == nil {
			t.Errorf("Build(%s, %d joiners): expected error", name, cfg.Joiners)
		}
	}
}

// TestRunAllEngines smoke-tests every variant end to end in both modes.
func TestRunAllEngines(t *testing.T) {
	wl := smallWorkload(20000)
	tuples, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Engines() {
		for _, mode := range []engine.EmitMode{engine.OnArrival, engine.OnWatermark} {
			if name == OpenMLDB && mode == engine.OnWatermark {
				continue // the baseline has no disorder machinery
			}
			res, err := Run(RunConfig{
				Engine:   name,
				Workload: wl,
				Tuples:   tuples,
				Joiners:  4,
				Agg:      agg.Sum,
				Mode:     mode,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			wantResults := int64(workload.CountBase(tuples))
			if res.Results != wantResults {
				t.Errorf("%s/%v: got %d results, want %d", name, mode, res.Results, wantResults)
			}
			if res.Throughput <= 0 {
				t.Errorf("%s/%v: non-positive throughput", name, mode)
			}
		}
	}
}

// TestWatermarkModeExact verifies that every engine supporting OnWatermark
// produces exactly the event-time reference results, for several joiner
// counts — the determinism the watermark protocol is designed to give.
func TestWatermarkModeExact(t *testing.T) {
	wl := smallWorkload(30000)
	tuples, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := refjoin.ByBaseSeq(refjoin.EventTime(tuples, wl.Window, agg.Sum))

	for _, name := range []string{KeyOIJ, ScaleOIJ, ScaleOIJNoInc, ScaleOIJNoDyn, ScaleOIJStatic, ScaleOIJIncOnly, SplitJoin} {
		for _, joiners := range []int{1, 3, 8} {
			sink := &engine.CollectSink{}
			cfg := engine.Config{Joiners: joiners, Window: wl.Window, Agg: agg.Sum, Mode: engine.OnWatermark}
			eng, err := Build(name, cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			eng.Start()
			for _, tp := range tuples {
				eng.Ingest(tp)
			}
			eng.Drain()

			got := sink.ByBaseSeq()
			if len(got) != len(want) {
				t.Fatalf("%s/j=%d: got %d results, want %d", name, joiners, len(got), len(want))
			}
			bad := 0
			for seq, w := range want {
				g, ok := got[seq]
				if !ok {
					t.Fatalf("%s/j=%d: missing result for base %d", name, joiners, seq)
				}
				if g.Matches != w.Matches || math.Abs(g.Agg-w.Agg) > 1e-6*math.Max(1, math.Abs(w.Agg)) {
					bad++
					if bad <= 3 {
						t.Errorf("%s/j=%d: base %d got (agg=%g n=%d) want (agg=%g n=%d)",
							name, joiners, seq, g.Agg, g.Matches, w.Agg, w.Matches)
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%s/j=%d: %d/%d results wrong", name, joiners, bad, len(want))
			}
		}
	}
}

// TestArrivalModeSingleJoiner verifies arrival semantics against the
// arrival-order reference with one joiner (where arrival order is total).
func TestArrivalModeSingleJoiner(t *testing.T) {
	wl := smallWorkload(20000)
	wl.Disorder = 0
	wl.Window.Lateness = 0
	wl.Window.Pre = 500
	tuples, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := refjoin.ByBaseSeq(refjoin.Arrival(tuples, wl.Window, agg.Sum))

	for _, name := range []string{KeyOIJ, ScaleOIJ, ScaleOIJNoInc, SplitJoin, OpenMLDB} {
		sink := &engine.CollectSink{}
		cfg := engine.Config{Joiners: 1, Window: wl.Window, Agg: agg.Sum, Mode: engine.OnArrival}
		eng, err := Build(name, cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		for _, tp := range tuples {
			eng.Ingest(tp)
		}
		eng.Drain()

		got := sink.ByBaseSeq()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d results, want %d", name, len(got), len(want))
		}
		for seq, w := range want {
			g := got[seq]
			if g.Matches != w.Matches || math.Abs(g.Agg-w.Agg) > 1e-6*math.Max(1, math.Abs(w.Agg)) {
				t.Fatalf("%s: base %d got (agg=%g n=%d) want (agg=%g n=%d)",
					name, seq, g.Agg, g.Matches, w.Agg, w.Matches)
			}
		}
	}
}

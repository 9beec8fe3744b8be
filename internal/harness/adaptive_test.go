package harness

import (
	"sync/atomic"
	"testing"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/workload"
)

// matchCounter tallies matches across results without retaining them.
type matchCounter struct {
	matches atomic.Int64
}

// Emit implements engine.Sink.
func (m *matchCounter) Emit(_ int, r tuple.Result) { m.matches.Add(r.Matches) }

// TestAdaptiveLatenessRecall drives Scale-OIJ in exact watermark mode over
// a stream whose true disorder bound (5 ms) the engine is not told. The
// online tardiness estimator must recover the exact event-time join's
// matches almost completely, where assuming an ordered stream (lateness 0)
// drops the tuples that arrive late.
func TestAdaptiveLatenessRecall(t *testing.T) {
	const trueDisorder = 5_000 // µs; withheld from both engines
	for _, seed := range []int64{7, 11, 4242} {
		wl := workload.DefaultSynthetic(40_000)
		wl.Seed = seed
		wl.Window.Lateness = trueDisorder
		wl.Disorder = trueDisorder
		wl.OrderedBase = false // disorder on both sides stresses accuracy
		tuples, err := wl.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, r := range refjoin.EventTime(tuples, wl.Window, agg.Sum) {
			want += r.Matches
		}
		if want == 0 {
			t.Fatalf("seed %d: reference join found no matches", seed)
		}

		recall := func(adaptive bool) float64 {
			cfg := engine.Config{
				Joiners:          4,
				Window:           wl.Window,
				Agg:              agg.Sum,
				Mode:             engine.OnWatermark,
				AdaptiveLateness: adaptive,
				AdaptiveQuantile: 0.999,
			}
			cfg.Window.Lateness = 0
			sink := &matchCounter{}
			eng, err := Build(ScaleOIJ, cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			eng.Start()
			for i := range tuples {
				eng.Ingest(tuples[i])
			}
			eng.Drain()
			return float64(sink.matches.Load()) / float64(want)
		}
		adaptive, naive := recall(true), recall(false)
		t.Logf("seed %d: recall adaptive q=0.999 %.4f, naive l=0 %.4f (%d reference matches)", seed, adaptive, naive, want)
		if adaptive < 0.999 {
			t.Errorf("seed %d: adaptive recall %.4f, want >= 0.999", seed, adaptive)
		}
		if adaptive <= naive {
			t.Errorf("seed %d: adaptive recall %.4f not above naive %.4f", seed, adaptive, naive)
		}
	}
}

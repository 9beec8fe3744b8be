package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/workload"
)

// seamSink implements Sink plus all three optional recorders, and samples
// every base tuple into a tracer: the engine core's observer seam is
// exercised on every result.
type seamSink struct {
	tracer *trace.Tracer

	mu        sync.Mutex
	emitted   map[uint64]int
	latencies atomic.Int64
	ingest    atomic.Int64 // StageIngest allocation objects booked
}

func newSeamSink(tuples []tuple.Tuple, bases int) *seamSink {
	s := &seamSink{tracer: trace.NewTracer(1, bases), emitted: map[uint64]int{}}
	for _, t := range tuples {
		if t.Side == tuple.Base {
			sp := trace.NewSpan(t.Seq, t.Key, t.TS)
			sp.Seq = t.Seq
			s.tracer.Register(sp)
		}
	}
	return s
}

// Emit implements engine.Sink. It retires the base's span the way the
// server's session writer does: the emit stage measures from the join
// stamp to this pickup, so it stays zero unless the engine stamped the
// span joined before emitting.
func (s *seamSink) Emit(_ int, r tuple.Result) {
	if sp := s.tracer.Lookup(r.BaseSeq); sp != nil {
		sp.StampWriterPickup()
		s.tracer.Complete(sp)
	}
	s.mu.Lock()
	s.emitted[r.BaseSeq]++
	s.mu.Unlock()
}

// Record implements engine.LatencyRecorder.
func (s *seamSink) Record(int, time.Duration) { s.latencies.Add(1) }

// SpanFor implements engine.StageRecorder.
func (s *seamSink) SpanFor(seq uint64) *trace.Span { return s.tracer.Lookup(seq) }

// CountAlloc implements engine.AllocRecorder.
func (s *seamSink) CountAlloc(st trace.Stage, objs, _ int64) {
	if st == trace.StageIngest {
		s.ingest.Add(objs)
	}
}

// TestEngineSeamCharacterization pins what every engine does with a sink
// that implements all three recorders: one latency record per stamped
// result, every span dispatched and joined exactly once, ingest
// allocations booked, and — when instrumented — a nonzero lookup/match
// breakdown and an effectiveness in (0, 1].
func TestEngineSeamCharacterization(t *testing.T) {
	wl := smallWorkload(4000)
	tuples, err := wl.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bases := workload.CountBase(tuples)
	for _, name := range []string{KeyOIJ, ScaleOIJ, SplitJoin, OpenMLDB} {
		for _, mode := range []engine.EmitMode{engine.OnArrival, engine.OnWatermark} {
			if name == OpenMLDB && mode == engine.OnWatermark {
				continue // the baseline supports arrival emission only
			}
			for _, instrument := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/instrument=%v", name, mode, instrument), func(t *testing.T) {
					sink := newSeamSink(tuples, bases)
					cfg := engine.Config{Joiners: 3, Window: wl.Window, Agg: agg.Sum, Mode: mode, Instrument: instrument}
					eng, err := Build(name, cfg, sink)
					if err != nil {
						t.Fatal(err)
					}
					eng.Start()
					for _, tp := range tuples {
						if tp.Side == tuple.Base {
							tp.Arrival = time.Now()
						}
						eng.Ingest(tp)
					}
					eng.Drain()

					if len(sink.emitted) != bases {
						t.Fatalf("%d distinct results, want %d", len(sink.emitted), bases)
					}
					for seq, n := range sink.emitted {
						if n != 1 {
							t.Fatalf("base %d emitted %d times", seq, n)
						}
					}
					if got := sink.latencies.Load(); got != int64(bases) {
						t.Errorf("%d latency records, want one per result (%d)", got, bases)
					}
					if got := eng.Stats().Results.Load(); got != int64(bases) {
						t.Errorf("Stats.Results = %d, want %d", got, bases)
					}
					if n := sink.tracer.Active(); n != 0 {
						t.Errorf("%d spans never retired by an emit", n)
					}
					snaps := sink.tracer.Snapshot()
					if len(snaps) != bases {
						t.Fatalf("%d spans retired, want %d", len(snaps), bases)
					}
					for _, sp := range snaps {
						if sp.Joiner < 0 || sp.Joiner >= cfg.Joiners {
							t.Fatalf("span %d dispatched to joiner %d", sp.Seq, sp.Joiner)
						}
						if sp.Stages[trace.StageEmit.String()] <= 0 {
							t.Fatalf("span %d emitted before it was stamped joined", sp.Seq)
						}
					}
					if sink.ingest.Load() <= 0 {
						t.Error("no StageIngest allocations booked")
					}
					if !instrument {
						return
					}
					bd := eng.Stats().MergedBreakdown()
					if bd.Lookup <= 0 || bd.Match <= 0 {
						t.Errorf("instrumented breakdown lookup=%v match=%v, want both nonzero", bd.Lookup, bd.Match)
					}
					if e := eng.Stats().MergedEffectiveness(); e <= 0 || e > 1 {
						t.Errorf("MergedEffectiveness = %v, want in (0, 1]", e)
					}
				})
			}
		}
	}
}

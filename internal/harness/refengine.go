package harness

import (
	"oij/internal/engine"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// refEngine adapts the refjoin oracle to the engine lifecycle so sweeps can
// measure the naive full-scan baseline alongside the real engines (and the
// perf gate can watch the oracle's own cost trajectory). It buffers the
// whole replay and joins at Drain on the driver goroutine: throughput is
// the oracle's batch cost, latency is meaningless (everything completes at
// drain time), and with more than one configured joiner every tuple still
// lands on slot 0 — unbalancedness 1:1 reflects that it is serial.
type refEngine struct {
	cfg    engine.Config
	sink   engine.Sink
	tuples []tuple.Tuple
	stats  *engine.Stats
}

func newRefEngine(cfg engine.Config, sink engine.Sink) *refEngine {
	cfg = cfg.WithDefaults()
	return &refEngine{cfg: cfg, sink: sink, stats: engine.NewStats(cfg.Joiners)}
}

// Name implements engine.Engine.
func (r *refEngine) Name() string { return RefJoin }

// Start implements engine.Engine; the oracle has no goroutines.
func (r *refEngine) Start() {}

// Ingest buffers one tuple.
func (r *refEngine) Ingest(t tuple.Tuple) {
	r.tuples = append(r.tuples, t)
	r.stats.Processed[0].Add(1)
}

// Heartbeat implements engine.Engine; the oracle never blocks on
// watermarks.
func (r *refEngine) Heartbeat() {}

// Drain joins the buffered replay and emits every result on joiner slot 0.
func (r *refEngine) Drain() {
	var rs []tuple.Result
	if r.cfg.Mode == engine.OnWatermark {
		rs = refjoin.EventTime(r.tuples, r.cfg.Window, r.cfg.Agg)
	} else {
		rs = refjoin.Arrival(r.tuples, r.cfg.Window, r.cfg.Agg)
	}
	for _, res := range rs {
		r.sink.Emit(0, res)
	}
	if b, ok := r.sink.(engine.BatchSink); ok {
		b.EndBatch(0)
	}
	r.stats.Results.Add(int64(len(rs)))
	r.tuples = nil
}

// Stats implements engine.Engine.
func (r *refEngine) Stats() *engine.Stats { return r.stats }

// QueueDepths implements engine.Introspector; the oracle has no rings, so
// every depth is zero.
func (r *refEngine) QueueDepths() []int { return make([]int, r.cfg.Joiners) }

// Watermark implements engine.Introspector; the oracle never broadcasts
// one.
func (r *refEngine) Watermark() tuple.Time { return watermark.MinTime }

// MaxEventTS implements engine.Introspector; the oracle tracks no event
// time until Drain.
func (r *refEngine) MaxEventTS() tuple.Time { return watermark.MinTime }

// Stalls implements engine.Introspector; the oracle never blocks.
func (r *refEngine) Stalls() engine.StallSnapshot { return engine.StallSnapshot{} }

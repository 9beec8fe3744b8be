package engine

import (
	"time"

	"oij/internal/agg"
	"oij/internal/trace"
	"oij/internal/tuple"
)

// Core is the framework every engine embeds, so it is written once: the
// transport, the run statistics, the sink with its optional recorders
// (resolved once, here), the joiner start and drain, the result emit, the
// instrumented two-pass join, and the Introspector and Heartbeat methods.
// An engine supplies only its routing (Ingest), its joiner state, and its
// scans.
type Core struct {
	// Cfg is the engine configuration, with defaults applied.
	Cfg Config
	// Tr carries tuples and in-band watermarks to the joiners.
	Tr *Transport
	// Alloc is the sink's allocation recorder, nil when the sink does not
	// account allocations. Engines book their own allocation sites with it.
	Alloc AllocRecorder

	stats   *Stats
	sink    Sink
	batch   BatchSink
	lat     LatencyRecorder
	stage   StageRecorder
	scratch []joinScratch
}

// joinScratch is one joiner's reusable two-pass buffer, padded so joiners
// appending to neighbouring slots do not share a cache line.
type joinScratch struct {
	buf []TSVal
	_   [cacheLineSize - 24]byte
}

// NewCore applies cfg's defaults, builds the transport and statistics, and
// asserts sink for its optional recorders. Engines embed the result by
// value, so joiners reach the configuration and statistics through the
// same single engine pointer as their own state.
func NewCore(cfg Config, sink Sink) Core {
	cfg = cfg.WithDefaults()
	if cfg.Instrument {
		// The breakdown's "other" category is total busy time minus
		// lookup and match, so instrumented runs need busy tracking.
		cfg.TrackBusy = true
	}
	c := Core{
		Cfg:     cfg,
		Tr:      NewTransport(cfg),
		stats:   NewStats(cfg.Joiners),
		sink:    sink,
		scratch: make([]joinScratch, cfg.Joiners),
	}
	c.batch, _ = sink.(BatchSink)
	c.lat, _ = sink.(LatencyRecorder)
	c.stage, _ = sink.(StageRecorder)
	c.Alloc, _ = sink.(AllocRecorder)
	return c
}

// Stats implements Engine.
func (c *Core) Stats() *Stats { return c.stats }

// Heartbeat implements Engine.
func (c *Core) Heartbeat() { c.Tr.Heartbeat() }

// QueueDepths implements Introspector.
func (c *Core) QueueDepths() []int { return c.Tr.QueueDepths() }

// Watermark implements Introspector.
func (c *Core) Watermark() tuple.Time { return c.Tr.Watermark() }

// MaxEventTS implements Introspector.
func (c *Core) MaxEventTS() tuple.Time { return c.Tr.MaxEventTS() }

// Stalls implements Introspector.
func (c *Core) Stalls() StallSnapshot { return c.Tr.Stalls() }

// StartJoiner launches joiner i's loop, accumulating its busy time when
// TrackBusy is set and closing the sink's result batch at the end of each
// ring batch unless h.NoEmit is set.
func (c *Core) StartJoiner(i int, h JoinerHooks) {
	if c.Cfg.TrackBusy {
		h.Busy = &c.stats.Busy[i]
	}
	if c.batch != nil && !h.NoEmit {
		h.OnBatchEnd = func() { c.batch.EndBatch(i) }
	}
	c.Tr.Go(i, h)
}

// EndBatch closes the result batch of joiner with a BatchSink; it is a
// no-op for other sinks. Only the goroutine that emits as joiner calls it.
func (c *Core) EndBatch(joiner int) {
	if c.batch != nil {
		c.batch.EndBatch(joiner)
	}
}

// Drain implements Engine for engines with nothing of their own to flush:
// it flushes the transport (final watermark, close, wait) and, when
// instrumented, fills the breakdown's "other" category. Engines mirror
// their evictions into Stats.Evicted as they sweep, and the final
// watermark sweeps everything, so the count is complete once the joiners
// have stopped.
func (c *Core) Drain() {
	c.Tr.Finish()
	if c.Cfg.Instrument {
		FillOther(c.stats)
	}
}

// NewState starts one base tuple's aggregate and books it with the
// allocation recorder.
func (c *Core) NewState() agg.State {
	CountStateAlloc(c.Alloc, trace.StageAggregate)
	return agg.NewState(c.Cfg.Agg)
}

// Span returns base seq's trace span, or nil when the sink does not trace
// or the base is unsampled. Every trace.Span method is nil-safe.
func (c *Core) Span(seq uint64) *trace.Span {
	if c.stage == nil {
		return nil
	}
	return c.stage.SpanFor(seq)
}

// Dispatch returns base's trace span (see Span) stamped as picked up by
// joiner. Broadcast engines call it from every joiner; the span keeps the
// first.
func (c *Core) Dispatch(joiner int, base tuple.Tuple) *trace.Span {
	sp := c.Span(base.Seq)
	sp.StampDispatched(joiner)
	return sp
}

// Emit delivers base's result on behalf of joiner: it stamps the span
// joined, counts the result, hands it to the sink, and records the
// latency when the base carries an arrival stamp.
func (c *Core) Emit(joiner int, base tuple.Tuple, st *agg.State, sp *trace.Span) {
	sp.StampJoined()
	c.stats.Results.Add(1)
	c.sink.Emit(joiner, tuple.Result{
		BaseTS:  base.TS,
		Key:     base.Key,
		BaseSeq: base.Seq,
		Agg:     st.Value(),
		Matches: st.Count(),
	})
	if c.lat != nil && !base.Arrival.IsZero() {
		c.lat.Record(joiner, time.Since(base.Arrival))
	}
}

// JoinTimed is the instrumented or traced join, for runs with
// Cfg.Instrument set or a sampled span: two passes, so lookup (scan, which
// appends the in-window pairs to dst and returns it with the number of
// buffered entries visited) and match (folding them into st) are timed
// separately, mirroring the paper's Fig. 6 categories. Both go to the
// span's probe and aggregate stages; only instrumented runs write the
// shared Breakdown and Effect. scan receives joiner's reusable scratch.
func (c *Core) JoinTimed(joiner int, st *agg.State, sp *trace.Span, scan func(dst []TSVal) ([]TSVal, int)) {
	s := &c.scratch[joiner]
	t0 := time.Now()
	before := cap(s.buf)
	var visited int
	s.buf, visited = scan(s.buf[:0])
	CountSliceGrowth(c.Alloc, trace.StageProbe, before, cap(s.buf), TSValAllocBytes)
	t1 := time.Now()
	for _, p := range s.buf {
		st.AddAt(p.TS, p.Val)
	}
	t2 := time.Now()
	if c.Cfg.Instrument {
		bd := &c.stats.Breakdown[joiner]
		bd.Lookup += t1.Sub(t0)
		bd.Match += t2.Sub(t1)
		c.stats.Effect[joiner].Observe(int64(len(s.buf)), int64(visited))
	}
	sp.Add(trace.StageProbe, t1.Sub(t0))
	sp.Add(trace.StageAggregate, t2.Sub(t1))
}

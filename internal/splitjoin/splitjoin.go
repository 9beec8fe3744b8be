// Package splitjoin implements SplitJoin (Najafi, Sadoghi, Jacobsen —
// USENIX ATC'16) adapted to online-interval-join semantics, the third
// comparator in the paper's §V-D evaluation.
//
// SplitJoin replaces key partitioning with a top-down data-flow model:
// every incoming tuple is *broadcast* to all joiners ("split"); each joiner
// *stores* only its round-robin share of the probe stream but *processes*
// every base tuple against that local share, emitting a partial aggregate;
// a collection stage merges the per-joiner partials into the final result.
// As in the paper, the adaptation adds a relative-window predicate to every
// comparison so the semantics match OIJ.
//
// The model is perfectly balanced by construction (hence its good latency
// on skewed workloads) but pays for it with J-way tuple broadcast traffic
// and the all-joiners-process-all-tuples pattern, which the paper shows
// over-killing the balance benefit at small windows and high thread counts
// (Fig. 21) and with full-buffer scans under large lateness (Fig. 19).
package splitjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/queue"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// partial is one joiner's contribution to one base tuple's aggregate.
type partial struct {
	baseSeq uint64
	baseTS  tuple.Time
	key     tuple.Key
	arrival time.Time
	st      agg.State
}

// Engine is the SplitJoin implementation of engine.Engine.
type Engine struct {
	cfg   engine.Config
	tr    *engine.Transport
	sink  engine.Sink
	lrec  engine.LatencyRecorder
	srec  engine.StageRecorder
	arec  engine.AllocRecorder
	stats *engine.Stats
	js    []*joiner

	// partials[i] carries joiner i's partial aggregates to the merger;
	// all of them share mergeWake, the merger's one park.
	partials  []*queue.SPSC[partial]
	mergeWake *queue.Waker
	mergerWG  sync.WaitGroup
}

// New builds a SplitJoin engine.
func New(cfg engine.Config, sink engine.Sink) *Engine {
	cfg = cfg.WithDefaults()
	if cfg.Instrument {
		cfg.TrackBusy = true
	}
	e := &Engine{cfg: cfg, tr: engine.NewTransport(cfg), sink: sink, stats: engine.NewStats(cfg.Joiners)}
	e.lrec, _ = sink.(engine.LatencyRecorder)
	e.srec, _ = sink.(engine.StageRecorder)
	e.arec, _ = sink.(engine.AllocRecorder)
	e.partials = make([]*queue.SPSC[partial], cfg.Joiners)
	e.mergeWake = queue.NewWaker()
	for i := range e.partials {
		e.partials[i] = queue.NewSPSCWaker[partial](cfg.QueueCap, e.mergeWake)
	}
	e.js = make([]*joiner, cfg.Joiners)
	for i := range e.js {
		e.js[i] = &joiner{e: e, id: i, buffers: make(map[tuple.Key][]tuple.Tuple), wm: watermark.MinTime, lastSweep: watermark.MinTime}
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "splitjoin" }

// Start implements engine.Engine.
func (e *Engine) Start() {
	for i, j := range e.js {
		var busy *atomic.Int64
		if e.cfg.TrackBusy {
			busy = &e.stats.Busy[i]
		}
		e.tr.Go(i, engine.JoinerHooks{OnTuple: j.onTuple, OnWatermark: j.onWatermark, Busy: busy})
	}
	e.mergerWG.Add(1)
	go e.mergeLoop()
}

// Ingest implements engine.Engine: broadcast (the "split" step).
func (e *Engine) Ingest(t tuple.Tuple) {
	e.tr.Observe(t.TS)
	e.tr.Broadcast(t)
	e.stats.Extra["broadcast"] += int64(e.cfg.Joiners)
}

// Drain implements engine.Engine.
func (e *Engine) Drain() {
	e.tr.Finish()
	for _, q := range e.partials {
		q.Close()
	}
	e.mergerWG.Wait()
	var evicted int64
	for _, j := range e.js {
		evicted += j.evicted
	}
	e.stats.Evicted.Store(evicted)
	if e.cfg.Instrument {
		engine.FillOther(e.stats)
	}
}

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return e.stats }

// Heartbeat implements engine.Engine.
func (e *Engine) Heartbeat() { e.tr.Heartbeat() }

// QueueDepths implements engine.Introspector.
func (e *Engine) QueueDepths() []int { return e.tr.QueueDepths() }

// Watermark implements engine.Introspector.
func (e *Engine) Watermark() tuple.Time { return e.tr.Watermark() }

// MaxEventTS implements engine.Introspector.
func (e *Engine) MaxEventTS() tuple.Time { return e.tr.MaxEventTS() }

// Stalls implements engine.Introspector.
func (e *Engine) Stalls() engine.StallSnapshot { return e.tr.Stalls() }

// mergeLoop is the collection stage: it gathers the J partial aggregates
// of every base tuple and emits the merged result.
type mergeSlot struct {
	st      agg.State
	got     int
	baseTS  tuple.Time
	key     tuple.Key
	arrival time.Time
}

func (e *Engine) mergeLoop() {
	defer e.mergerWG.Done()
	slots := make(map[uint64]*mergeSlot)
	batch := make([]partial, 64)
	for {
		progress := false
		for _, q := range e.partials {
			n := q.PopBatch(batch)
			if n == 0 {
				continue
			}
			progress = true
			for _, p := range batch[:n] {
				slot, ok := slots[p.baseSeq]
				if !ok {
					slot = &mergeSlot{st: agg.NewState(e.cfg.Agg), baseTS: p.baseTS, key: p.key, arrival: p.arrival}
					slots[p.baseSeq] = slot
					// The merge slot plus its collection-side state are
					// per-result allocations on the emit path.
					engine.CountStateAlloc(e.arec, trace.StageEmit)
				}
				slot.st.Merge(p.st)
				slot.got++
				if slot.got == e.cfg.Joiners {
					delete(slots, p.baseSeq)
					if e.srec != nil {
						// The merge completing is the moment the
						// result exists; stages accumulated by the
						// team (probe/aggregate) are summed across
						// joiners by Span.Add's atomics.
						e.srec.SpanFor(p.baseSeq).StampJoined()
					}
					e.stats.Results.Add(1)
					e.sink.Emit(0, tuple.Result{
						BaseTS:  slot.baseTS,
						Key:     slot.key,
						BaseSeq: p.baseSeq,
						Agg:     slot.st.Value(),
						Matches: slot.st.Count(),
					})
					if e.lrec != nil && !slot.arrival.IsZero() {
						e.lrec.Record(0, time.Since(slot.arrival))
					}
				}
			}
		}
		if progress {
			continue
		}
		if e.partialsDrained() {
			return
		}
		e.mergeWake.Wait(e.partialReady)
	}
}

// partialsDrained reports whether every partial ring is closed and empty.
func (e *Engine) partialsDrained() bool {
	for _, q := range e.partials {
		if !q.Closed() || q.Len() > 0 {
			return false
		}
	}
	return true
}

// partialReady reports whether the merger has anything to do: a partial
// queued on some ring, or every ring closed.
func (e *Engine) partialReady() bool {
	for _, q := range e.partials {
		if q.Len() > 0 {
			return true
		}
	}
	return e.partialsDrained()
}

// joiner is one SplitJoin worker: it stores its round-robin 1/J share of
// the probe stream in per-key arrival-order buffers and evaluates every
// base tuple against that local share.
type joiner struct {
	e  *Engine
	id int

	probeSeen uint64 // round-robin counter over the broadcast probe stream
	buffers   map[tuple.Key][]tuple.Tuple
	pending   engine.PendingHeap
	wm        tuple.Time
	lastSweep tuple.Time
	evicted   int64
	published int64 // evictions already mirrored into stats.Evicted
	scratch   []engine.TSVal
}

func (j *joiner) onTuple(t tuple.Tuple) {
	if t.Side == tuple.Probe {
		// Store step: only the round-robin owner keeps the tuple. All
		// joiners see the identical broadcast order, so ownership is
		// consistent without coordination.
		owner := j.probeSeen % uint64(j.e.cfg.Joiners)
		j.probeSeen++
		if owner != uint64(j.id) {
			return
		}
		j.e.stats.Processed[j.id].Add(1)
		buf := j.buffers[t.Key]
		before := cap(buf)
		buf = append(buf, t)
		j.buffers[t.Key] = buf
		engine.CountSliceGrowth(j.e.arec, trace.StageIngest, before, cap(buf), engine.TupleAllocBytes)
		return
	}
	j.e.stats.Processed[j.id].Add(1)
	if j.e.cfg.Mode == engine.OnWatermark {
		j.pending.Push(t)
		return
	}
	j.join(t)
}

func (j *joiner) onWatermark(wm tuple.Time) {
	// Equal watermarks are heartbeats: re-run finalization (the global
	// minimum may have advanced) but skip stale (smaller) values.
	if wm < j.wm {
		return
	}
	j.wm = wm
	if j.e.cfg.Mode == engine.OnWatermark {
		for {
			b, ok := j.pending.PopIfBefore(wm - j.e.cfg.Window.Fol)
			if !ok {
				break
			}
			j.join(b)
		}
	}
	horizon := j.e.cfg.Window.Len() + j.e.cfg.Window.Lateness
	if j.lastSweep == watermark.MinTime || wm-j.lastSweep > horizon/2+1 {
		j.lastSweep = wm
		bound := j.evictBound(wm)
		for k, buf := range j.buffers {
			keep := buf[:0]
			for _, t := range buf {
				if t.TS >= bound {
					keep = append(keep, t)
				} else {
					j.evicted++
				}
			}
			j.buffers[k] = keep
		}
	}
	// Mirror evictions into the shared counter at watermark cadence, so
	// the serving layer's memory guard reads live buffered state without a
	// per-tuple atomic on the join path.
	if d := j.evicted - j.published; d > 0 {
		j.published = j.evicted
		j.e.stats.Evicted.Add(d)
	}
}

func (j *joiner) evictBound(wm tuple.Time) tuple.Time {
	if wm == watermark.MinTime {
		return watermark.MinTime
	}
	b := wm - j.e.cfg.Window.Pre
	if j.e.cfg.Mode == engine.OnWatermark {
		b -= j.e.cfg.Window.Fol
	}
	return b
}

// join scans the local probe share with the added interval predicate and
// ships the partial aggregate to the merger.
func (j *joiner) join(base tuple.Tuple) {
	lo, hi := j.e.cfg.Window.Bounds(base.TS)
	buf := j.buffers[base.Key]
	st := agg.NewState(j.e.cfg.Agg)
	engine.CountStateAlloc(j.e.arec, trace.StageAggregate)

	var sp *trace.Span
	if j.e.srec != nil {
		sp = j.e.srec.SpanFor(base.Seq)
	}
	// Every joiner processes every base; the dispatch stamp's CAS keeps
	// the first joiner to arrive, and each member's probe/aggregate time
	// accumulates into the span (team-summed work, not wall time).
	sp.StampDispatched(j.id)

	if j.e.cfg.Instrument || sp != nil {
		t0 := time.Now()
		scratchCap := cap(j.scratch)
		j.scratch = j.scratch[:0]
		for _, t := range buf {
			if t.TS >= lo && t.TS <= hi {
				j.scratch = append(j.scratch, engine.TSVal{TS: t.TS, Val: t.Val})
			}
		}
		engine.CountSliceGrowth(j.e.arec, trace.StageProbe, scratchCap, cap(j.scratch), engine.TSValAllocBytes)
		t1 := time.Now()
		for _, p := range j.scratch {
			st.AddAt(p.TS, p.Val)
		}
		t2 := time.Now()
		if j.e.cfg.Instrument {
			bd := &j.e.stats.Breakdown[j.id]
			bd.Lookup += t1.Sub(t0)
			bd.Match += t2.Sub(t1)
			j.e.stats.Effect[j.id].Observe(int64(len(j.scratch)), int64(len(buf)))
		}
		sp.Add(trace.StageProbe, t1.Sub(t0))
		sp.Add(trace.StageAggregate, t2.Sub(t1))
	} else {
		for _, t := range buf {
			if t.TS >= lo && t.TS <= hi {
				st.AddAt(t.TS, t.Val)
			}
		}
	}

	p := partial{baseSeq: base.Seq, baseTS: base.TS, key: base.Key, arrival: base.Arrival, st: st}
	for !j.e.partials[j.id].TryPush(p) {
		runtime.Gosched()
	}
}

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

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/queue"
	"oij/internal/trace"
	"oij/internal/tuple"
)

// partial is one joiner's contribution to one base tuple's aggregate.
type partial struct {
	base tuple.Tuple
	st   agg.State
}

// Engine is the SplitJoin implementation of engine.Engine.
type Engine struct {
	engine.Core
	js []*joiner

	// partials[i] carries joiner i's partial aggregates to the merger;
	// all of them share mergeWake, the merger's one park.
	partials  []*queue.SPSC[partial]
	mergeWake *queue.Waker
	mergerWG  sync.WaitGroup
}

// New builds a SplitJoin engine.
func New(cfg engine.Config, sink engine.Sink) *Engine {
	e := &Engine{Core: engine.NewCore(cfg, sink)}
	cfg = e.Cfg
	e.partials = make([]*queue.SPSC[partial], cfg.Joiners)
	e.mergeWake = queue.NewWaker()
	for i := range e.partials {
		e.partials[i] = queue.NewSPSCWaker[partial](cfg.QueueCap, e.mergeWake)
	}
	e.js = make([]*joiner, cfg.Joiners)
	for i := range e.js {
		e.js[i] = &joiner{e: e, id: i, buffers: engine.KeyBuffers{}, ScanState: e.NewScanState()}
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "splitjoin" }

// Start implements engine.Engine.
func (e *Engine) Start() {
	for i, j := range e.js {
		e.StartJoiner(i, engine.JoinerHooks{OnTuple: j.onTuple, OnWatermark: j.onWatermark, NoEmit: true})
	}
	e.mergerWG.Add(1)
	go e.mergeLoop()
}

// Ingest implements engine.Engine: broadcast (the "split" step).
func (e *Engine) Ingest(t tuple.Tuple) {
	e.Tr.Observe(t.TS)
	e.Tr.Broadcast(t)
	e.Stats().Extra["broadcast"] += int64(e.Cfg.Joiners)
}

// Drain implements engine.Engine.
func (e *Engine) Drain() {
	e.Core.Drain()
	for _, q := range e.partials {
		q.Close()
	}
	e.mergerWG.Wait()
}

// mergeSlot accumulates one base tuple's partial aggregates.
type mergeSlot struct {
	st  agg.State
	got int
}

// mergeLoop is the collection stage: it gathers the J partial aggregates
// of every base tuple and emits the merged result.
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
				slot, ok := slots[p.base.Seq]
				if !ok {
					slot = &mergeSlot{st: agg.NewState(e.Cfg.Agg)}
					slots[p.base.Seq] = slot
					// The merge slot plus its collection-side state are
					// per-result allocations on the emit path.
					engine.CountStateAlloc(e.Alloc, trace.StageEmit)
				}
				slot.st.Merge(p.st)
				slot.got++
				if slot.got == e.Cfg.Joiners {
					delete(slots, p.base.Seq)
					// The merge completing is the moment the result
					// exists; stages accumulated by the team
					// (probe/aggregate) are summed across joiners by
					// Span.Add's atomics.
					e.Emit(0, p.base, &slot.st, e.Span(p.base.Seq))
				}
			}
		}
		if progress {
			// The merger emits as joiner 0, so it owns that joiner's
			// result batch: close it after each pass over the rings.
			e.EndBatch(0)
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
	buffers   engine.KeyBuffers
	engine.ScanState
}

func (j *joiner) onTuple(t tuple.Tuple) {
	if t.Side == tuple.Probe {
		// Store step: only the round-robin owner keeps the tuple. All
		// joiners see the identical broadcast order, so ownership is
		// consistent without coordination.
		owner := j.probeSeen % uint64(j.e.Cfg.Joiners)
		j.probeSeen++
		if owner != uint64(j.id) {
			return
		}
		j.e.Stats().Processed[j.id].Add(1)
		j.buffers.Append(t, j.e.Alloc)
		return
	}
	j.e.Stats().Processed[j.id].Add(1)
	if j.e.Cfg.Mode == engine.OnWatermark {
		j.Pending.Push(t)
		return
	}
	j.join(t)
}

func (j *joiner) onWatermark(wm tuple.Time) { j.Advance(wm, j.buffers, j.join) }

// join scans the local probe share with the added interval predicate and
// ships the partial aggregate to the merger.
func (j *joiner) join(base tuple.Tuple) {
	lo, hi := j.e.Cfg.Window.Bounds(base.TS)
	buf := j.buffers[base.Key]
	st := j.e.NewState()
	// Every joiner processes every base; the dispatch stamp's CAS keeps
	// the first joiner to arrive, and each member's probe/aggregate time
	// accumulates into the span (team-summed work, not wall time).
	sp := j.e.Dispatch(j.id, base)

	if j.e.Cfg.Instrument || sp != nil {
		j.e.JoinTimed(j.id, &st, sp, func(dst []engine.TSVal) ([]engine.TSVal, int) {
			for _, t := range buf {
				if t.TS >= lo && t.TS <= hi {
					dst = append(dst, engine.TSVal{TS: t.TS, Val: t.Val})
				}
			}
			return dst, len(buf)
		})
	} else {
		for _, t := range buf {
			if t.TS >= lo && t.TS <= hi {
				st.AddAt(t.TS, t.Val)
			}
		}
	}

	p := partial{base: base, st: st}
	for !j.e.partials[j.id].TryPush(p) {
		runtime.Gosched()
	}
}

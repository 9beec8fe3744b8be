// Package keyoij implements Key-OIJ, the key-partitioned parallel online
// interval join the paper profiles in §IV — the design used by Apache
// Flink's interval join and, until this paper, the only parallel OIJ
// algorithm.
//
// Every tuple is routed to a statically chosen joiner by its key hash; each
// joiner buffers probe tuples per key in arrival order (unsorted) and, for
// every base tuple, performs a full scan over the key's buffer to filter
// the tuples inside the relative window. The three pathologies the paper
// attributes to this design fall out directly:
//
//   - out-of-order handling: the unsorted buffer must retain lateness-worth
//     of extra tuples and every join visits all of them (Figs. 7, 11);
//   - static key partition: at most u joiners are useful and skewed keys
//     skew joiners (Figs. 4a, 8, 13);
//   - no sharing between overlapping windows: every window re-aggregates
//     from scratch (Figs. 9, 16).
package keyoij

import (
	"oij/internal/engine"
	"oij/internal/tuple"
)

// Engine is the Key-OIJ implementation of engine.Engine.
type Engine struct {
	engine.Core
	js []*joiner
}

// New builds a Key-OIJ engine.
func New(cfg engine.Config, sink engine.Sink) *Engine {
	e := &Engine{Core: engine.NewCore(cfg, sink)}
	e.js = make([]*joiner, e.Cfg.Joiners)
	for i := range e.js {
		e.js[i] = &joiner{e: e, id: i, buffers: engine.KeyBuffers{}, ScanState: e.NewScanState()}
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "key-oij" }

// Start implements engine.Engine.
func (e *Engine) Start() {
	for i, j := range e.js {
		e.StartJoiner(i, engine.JoinerHooks{OnTuple: j.onTuple, OnWatermark: j.onWatermark})
	}
}

// Ingest implements engine.Engine: static key-hash routing.
func (e *Engine) Ingest(t tuple.Tuple) {
	e.Tr.Observe(t.TS)
	e.Tr.Push(int(engine.HashKey(t.Key)%uint64(e.Cfg.Joiners)), t)
}

// joiner is one Key-OIJ worker: per-key unsorted probe buffers plus, in
// OnWatermark mode, a heap of base tuples awaiting window completion.
type joiner struct {
	e       *Engine
	id      int
	buffers engine.KeyBuffers
	engine.ScanState
}

func (j *joiner) onTuple(t tuple.Tuple) {
	j.e.Stats().Processed[j.id].Add(1)
	if t.Side == tuple.Probe {
		j.buffers.Append(t, j.e.Alloc)
		return
	}
	if j.e.Cfg.Mode == engine.OnWatermark {
		j.Pending.Push(t)
		return
	}
	j.join(t)
}

func (j *joiner) onWatermark(wm tuple.Time) { j.Advance(wm, j.buffers, j.join) }

// join performs the full-scan interval join for one base tuple: visit every
// buffered tuple of the key, filter by the relative window, aggregate, and
// emit. Expired tuples encountered during the scan are compacted away (the
// scan already paid for visiting them).
func (j *joiner) join(base tuple.Tuple) {
	lo, hi := j.e.Cfg.Window.Bounds(base.TS)
	bound := j.EvictBound(j.WM)
	if j.e.Cfg.Mode == engine.OnWatermark && base.TS-j.e.Cfg.Window.Pre < bound {
		// Finalization pops pending bases in ascending timestamp order,
		// so nothing below this base's own window start is needed again
		// — but the watermark-derived bound can overshoot it while a
		// batch of bases finalizes at one watermark. Clamp so the
		// inline compaction never drops probes a later pending base
		// (with a larger timestamp) still matches.
		bound = base.TS - j.e.Cfg.Window.Pre
	}
	buf := j.buffers[base.Key]
	st := j.e.NewState()
	sp := j.e.Dispatch(j.id, base)

	if j.e.Cfg.Instrument || sp != nil {
		// Lookup filters the full buffer (compacting it as it goes);
		// sampled spans take this path too so probe and aggregate stages
		// get distinct timings.
		j.e.JoinTimed(j.id, &st, sp, func(dst []engine.TSVal) ([]engine.TSVal, int) {
			keep := buf[:0]
			for _, t := range buf {
				if t.TS >= lo && t.TS <= hi {
					dst = append(dst, engine.TSVal{TS: t.TS, Val: t.Val})
				}
				if t.TS >= bound {
					keep = append(keep, t)
				} else {
					j.Evicted++
				}
			}
			j.buffers[base.Key] = keep
			return dst, len(buf)
		})
	} else {
		keep := buf[:0]
		for _, t := range buf {
			if t.TS >= lo && t.TS <= hi {
				st.AddAt(t.TS, t.Val)
			}
			if t.TS >= bound {
				keep = append(keep, t)
			} else {
				j.Evicted++
			}
		}
		j.buffers[base.Key] = keep
	}

	j.e.Emit(j.id, base, &st, sp)
}

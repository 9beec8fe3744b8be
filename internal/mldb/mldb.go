// Package mldb models the OpenMLDB online engine the paper compares
// against in §V-E: a read-optimized in-memory table (sorted per-key time
// index, like OpenMLDB's memtable) *shared by all processing threads* and
// guarded as a whole, so concurrent insertions serialize — "insertion will
// become a potential performance bottleneck" — and with no out-of-order
// machinery at all (the paper removes OpenMLDB's accuracy checking, so
// lateness is intentionally ignored and retention covers the window only).
//
// The two properties §V-E blames for the slowdown are therefore explicit
// here: (1) writer serialization on the shared structure, which collapses
// at high arrival rates (Workloads B/C); (2) the read-intensive assumption,
// which makes it perfectly adequate at low rates (Workload D).
package mldb

import (
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/engine"
	"oij/internal/timetravel"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// Engine is the OpenMLDB-style baseline implementation of engine.Engine.
// It always emits on arrival (request/serving semantics); OnWatermark mode
// is not supported, mirroring OpenMLDB's lack of disorder handling.
type Engine struct {
	engine.Core

	// mu guards table: one writer at a time, readers share. The paper's
	// insertion bottleneck is exactly this serialization.
	mu       sync.RWMutex
	table    *timetravel.Index
	lockWait atomic.Int64 // ns spent waiting for mu across workers

	rr        int
	lastSweep tuple.Time // worker 0's newest sweep
	wms       []tuple.Time
}

// New builds the baseline engine.
func New(cfg engine.Config, sink engine.Sink) *Engine {
	e := &Engine{
		Core:      engine.NewCore(cfg, sink),
		table:     timetravel.New(0xfeed),
		lastSweep: watermark.MinTime,
	}
	e.wms = make([]tuple.Time, e.Cfg.Joiners)
	for i := range e.wms {
		e.wms[i] = watermark.MinTime
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "openmldb" }

// Start implements engine.Engine.
func (e *Engine) Start() {
	for i := 0; i < e.Cfg.Joiners; i++ {
		i := i
		e.StartJoiner(i, engine.JoinerHooks{
			OnTuple:     func(t tuple.Tuple) { e.work(i, t) },
			OnWatermark: func(wm tuple.Time) { e.watermark(i, wm) },
		})
	}
}

// Ingest implements engine.Engine: round-robin across workers — with a
// single shared table there is no data ownership to partition by.
func (e *Engine) Ingest(t tuple.Tuple) {
	e.Tr.Observe(t.TS)
	e.Tr.Push(e.rr, t)
	e.rr = (e.rr + 1) % e.Cfg.Joiners
}

// Drain implements engine.Engine.
func (e *Engine) Drain() {
	e.Core.Drain()
	e.Stats().Extra["lock_wait_ns"] = e.lockWait.Load()
}

func (e *Engine) work(id int, t tuple.Tuple) {
	e.Stats().Processed[id].Add(1)
	if t.Side == tuple.Probe {
		w0 := time.Now()
		e.mu.Lock()
		e.lockWait.Add(int64(time.Since(w0)))
		objs, b := e.table.Put(t)
		e.mu.Unlock()
		if objs > 0 && e.Alloc != nil {
			e.Alloc.CountAlloc(trace.StageIngest, objs, b)
		}
		return
	}
	e.join(id, t)
}

func (e *Engine) join(id int, base tuple.Tuple) {
	lo, hi := e.Cfg.Window.Bounds(base.TS)
	st := e.NewState()
	sp := e.Dispatch(id, base)

	w0 := time.Now()
	e.mu.RLock()
	waited := time.Since(w0)
	if e.Cfg.Instrument || sp != nil {
		e.JoinTimed(id, &st, sp, func(dst []engine.TSVal) ([]engine.TSVal, int) {
			visited := e.table.ScanWindow(base.Key, lo, hi, func(ts tuple.Time, val float64) bool {
				dst = append(dst, engine.TSVal{TS: ts, Val: val})
				return true
			})
			e.mu.RUnlock()
			return dst, visited
		})
	} else {
		e.table.ScanWindow(base.Key, lo, hi, func(ts tuple.Time, val float64) bool {
			st.AddAt(ts, val)
			return true
		})
		e.mu.RUnlock()
	}
	e.lockWait.Add(int64(waited))

	e.Emit(id, base, &st, sp)
}

// watermark triggers eviction: retention is the window only — no lateness
// slack, the accuracy machinery the paper removed. Worker 0 does the sweep
// under the write lock.
func (e *Engine) watermark(id int, wm tuple.Time) {
	if wm <= e.wms[id] {
		return
	}
	e.wms[id] = wm
	if id != 0 {
		return
	}
	// Undo the driver's lateness subtraction: this engine evicts by
	// observed max event time, pretending streams are ordered.
	maxTS := wm + e.Cfg.Window.Lateness
	horizon := e.Cfg.Window.Len()
	if e.lastSweep != watermark.MinTime && maxTS-e.lastSweep <= horizon/2+1 {
		return
	}
	e.lastSweep = maxTS
	w0 := time.Now()
	e.mu.Lock()
	e.lockWait.Add(int64(time.Since(w0)))
	if n := int64(e.table.EvictBefore(maxTS - e.Cfg.Window.Pre - e.Cfg.Window.Fol)); n > 0 {
		// Mirror live for the serving layer's memory guard; sweeps are
		// amortized to half the retention horizon.
		e.Stats().Evicted.Add(n)
	}
	e.mu.Unlock()
}

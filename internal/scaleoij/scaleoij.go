// Package scaleoij implements Scale-OIJ, the paper's contribution (§V): a
// parallel online interval join combining
//
//  1. the SWMR time-travel index (package timetravel), so window boundaries
//     are located in O(log) and lateness-inflated buffers are never scanned;
//  2. shared processing via virtual teams and the dynamic balanced schedule
//     (package sched), so few or skewed keys no longer pin work to single
//     joiners; and
//  3. incremental window aggregation (Subtract-on-Evict adapted to interval
//     joins), so overlapping windows share aggregation work.
//
// Each technique toggles independently through Options, which is how the
// ablation experiments (Figs. 11, 13, 16) isolate their contributions. The
// "no time-travel index" ablation is Key-OIJ itself (package keyoij), as in
// the paper.
package scaleoij

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/sched"
	"oij/internal/timetravel"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// Options select Scale-OIJ's optimizations.
type Options struct {
	// SharedProcessing lets virtual-team members read each other's
	// indices so tuples of one key can be spread over several joiners.
	SharedProcessing bool
	// DynamicSchedule runs the Algorithm-3 balancer, growing virtual
	// teams toward the unbalancedness optimum. Implies SharedProcessing.
	DynamicSchedule bool
	// Incremental enables Subtract-on-Evict incremental aggregation for
	// invertible aggregation functions.
	Incremental bool
	// Sched tunes the balancer.
	Sched sched.Config
	// RescheduleEvery is the number of ingested tuples between balancer
	// passes (default 32768).
	RescheduleEvery int
}

// Default returns all optimizations enabled, with cold virtual teams
// shrinking back to their home joiner so the schedule tracks shifting hot
// sets (Fig. 14) instead of accreting stale replicas.
func Default() Options {
	return Options{
		SharedProcessing: true,
		DynamicSchedule:  true,
		Incremental:      true,
		Sched:            sched.Config{ShrinkFraction: 0.05},
	}
}

func (o Options) withDefaults() Options {
	if o.DynamicSchedule {
		o.SharedProcessing = true
	}
	if o.RescheduleEvery <= 0 {
		o.RescheduleEvery = 32768
	}
	o.Sched = o.Sched.WithDefaults()
	return o
}

// Engine is the Scale-OIJ implementation of engine.Engine.
type Engine struct {
	engine.Core
	opt Options
	js  []*joiner

	// Driver-side scheduling state.
	schedule  *sched.Schedule
	bal       *sched.Balancer
	sinceBal  int
	lastWrite [][]tuple.Time // [partition][joiner] newest event ts routed

	// active is the number of joiners currently receiving newly routed
	// tuples (driver-owned); pubActive mirrors it for concurrent readers
	// (ActiveJoiners). The full cfg.Joiners pool keeps running — see
	// Resize.
	active    int
	pubActive atomic.Int32

	// masks[p] is partition p's read set: every joiner whose index may
	// hold live tuples of p. Written by the driver, read by joiners.
	masks []atomic.Uint64

	// processed[i] is the newest in-band watermark joiner i has handled;
	// finalized[i] is the watermark through which joiner i has emitted
	// its pending windows. Both drive safe cross-team eviction (see
	// evictWM).
	processed *watermark.Tracker
	finalized *watermark.Tracker
}

// New builds a Scale-OIJ engine. It panics if cfg.Joiners exceeds
// sched.MaxJoiners (the read-set mask width).
func New(cfg engine.Config, opt Options, sink engine.Sink) *Engine {
	core := engine.NewCore(cfg, sink)
	cfg = core.Cfg
	opt = opt.withDefaults()
	bal, err := sched.NewBalancer(opt.Sched, cfg.Joiners)
	if err != nil {
		panic(err)
	}
	p := bal.Partitions()
	e := &Engine{
		Core:      core,
		opt:       opt,
		schedule:  sched.NewStatic(p, cfg.Joiners),
		bal:       bal,
		masks:     make([]atomic.Uint64, p),
		lastWrite: make([][]tuple.Time, p),
		processed: watermark.NewTracker(cfg.Joiners),
		finalized: watermark.NewTracker(cfg.Joiners),
	}
	e.active = cfg.Joiners
	e.pubActive.Store(int32(cfg.Joiners))
	for i := range e.lastWrite {
		e.lastWrite[i] = make([]tuple.Time, cfg.Joiners)
		e.masks[i].Store(1 << uint(i%cfg.Joiners))
	}
	e.js = make([]*joiner, cfg.Joiners)
	for i := range e.js {
		e.js[i] = newJoiner(e, i)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "scale-oij" }

// Start implements engine.Engine.
func (e *Engine) Start() {
	for i, j := range e.js {
		hooks := engine.JoinerHooks{OnTuple: j.onTuple, OnWatermark: j.onWatermark}
		if e.Cfg.Mode == engine.OnWatermark {
			hooks.OnDrained = j.onDrained
		}
		e.StartJoiner(i, hooks)
	}
}

// partition maps a key to its hash bucket.
func (e *Engine) partition(k tuple.Key) int {
	return int(engine.HashKey(k) % uint64(len(e.masks)))
}

// Ingest implements engine.Engine: route by the current schedule, keep the
// read-set mask and balancer statistics, and periodically rebalance.
func (e *Engine) Ingest(t tuple.Tuple) {
	e.Tr.Observe(t.TS)
	p := e.partition(t.Key)
	j := e.schedule.Route(p)

	// Maintain the read set before the tuple is visible: a reader must
	// never miss an index that holds live data for p.
	if m := e.masks[p].Load(); m&(1<<uint(j)) == 0 {
		e.masks[p].Store(m | 1<<uint(j))
	}
	if t.TS > e.lastWrite[p][j] {
		e.lastWrite[p][j] = t.TS
	}
	e.bal.Counts[p]++

	e.Tr.Push(j, t)

	if e.opt.DynamicSchedule {
		e.sinceBal++
		if e.sinceBal >= e.opt.RescheduleEvery {
			e.sinceBal = 0
			e.rebalance(t.TS)
		}
	}
}

// rebalance runs one Algorithm-3 pass and prunes read-set bits whose data
// has fully expired.
func (e *Engine) rebalance(nowTS tuple.Time) {
	if s, changed := e.bal.Rebalance(e.schedule); changed {
		e.schedule = s
	}
	// A joiner that stopped receiving partition p keeps its mask bit
	// until everything it buffered for p is evictable everywhere.
	w := e.Cfg.Window
	retention := w.Len() + w.Lateness + w.Len() // eviction slack upper bound
	for p := range e.masks {
		m := e.masks[p].Load()
		nm := m
		for j := 0; j < e.Cfg.Joiners; j++ {
			bit := uint64(1) << uint(j)
			if m&bit == 0 || e.schedule.TeamMask(p)&bit != 0 {
				continue
			}
			if e.lastWrite[p][j]+retention < nowTS-w.Lateness {
				nm &^= bit
			}
		}
		if nm != m {
			e.masks[p].Store(nm)
		}
	}
}

// Drain implements engine.Engine.
func (e *Engine) Drain() {
	e.Core.Drain()
	e.Stats().Extra["reschedules"] = e.bal.Reschedules.Load()
	if e.opt.Sched.Topology != nil {
		share := sched.CrossNodeShare(e.schedule, e.bal.Counts, e.opt.Sched.Topology, e.Cfg.Joiners)
		e.Stats().Extra["cross_node_permille"] = int64(1000 * share)
	}
}

// Reschedules reports accepted dynamic-schedule changes so far; safe to
// read live.
func (e *Engine) Reschedules() int64 { return e.bal.Reschedules.Load() }

// Resize implements engine.Resizer: it narrows (or re-widens) routing to
// the first n joiners without migrating any buffered data. The read-set
// masks make this safe — a joiner that stops receiving a partition keeps
// its mask bit until everything it buffered has expired (rebalance prunes
// it after the retention horizon), so shared-processing reads still cover
// every live tuple and answers stay byte-identical to the oracle across a
// resize. The full pool of cfg.Joiners goroutines and rings keeps running:
// watermarks are broadcast to all of them, so finalization and eviction on
// deactivated joiners continue. Requires SharedProcessing (without it a
// deactivated joiner's buffer would become unreachable); returns false
// otherwise. Driver goroutine only.
func (e *Engine) Resize(n int) bool {
	if !e.opt.SharedProcessing {
		return false
	}
	if n < 1 {
		n = 1
	}
	if n > e.Cfg.Joiners {
		n = e.Cfg.Joiners
	}
	if n == e.active {
		return true
	}
	e.active = n
	e.pubActive.Store(int32(n))
	e.bal.SetActive(n)
	e.schedule = e.schedule.Restrict(n)
	return true
}

// ActiveJoiners implements engine.Resizer. Safe from any goroutine.
func (e *Engine) ActiveJoiners() int { return int(e.pubActive.Load()) }

// incEntry caches the previous window's aggregate for one key at one
// joiner, so the next window is computed by adding and subtracting only the
// non-overlapping edges (Fig. 15/16 of the paper). Invertible operators use
// the Subtract-on-Evict state st; non-invertible ones (min/max) use the
// two-stacks sliding window — the paper's "incremental computing for
// non-invertible operators" future-work item.
type incEntry struct {
	lo, hi tuple.Time
	mask   uint64
	st     agg.State
	slide  *agg.Sliding
	// late buffers interior inserts the two-stacks window cannot absorb
	// (a FIFO structure only grows at the tail); they are folded into
	// the aggregate at query time and pruned as the window slides past
	// them. Past lateCap the entry rebuilds instead.
	late []tsval
}

// lateCap bounds the per-entry late buffer before a rebuild is cheaper.
const lateCap = 64

// joiner is one Scale-OIJ worker.
type joiner struct {
	e  *Engine
	id int

	ix        *timetravel.Index
	pending   engine.PendingHeap
	wm        tuple.Time // newest in-band watermark seen
	lastSweep tuple.Time
	inc       map[tuple.Key]*incEntry
	pairs     []tsval
}

// tsval is a scratch (timestamp, value) pair for merged team scans.
type tsval struct {
	ts  tuple.Time
	val float64
}

func newJoiner(e *Engine, id int) *joiner {
	return &joiner{
		e:         e,
		id:        id,
		ix:        timetravel.New(uint64(id)*0x9e3779b97f4a7c15 + 1),
		wm:        watermark.MinTime,
		lastSweep: watermark.MinTime,
		inc:       make(map[tuple.Key]*incEntry),
	}
}

func (j *joiner) onTuple(t tuple.Tuple) {
	j.e.Stats().Processed[j.id].Add(1)
	if t.Side == tuple.Probe {
		j.ix.Put(t)
		if j.e.Alloc != nil {
			// Every Put allocates one time-travel index node.
			j.e.Alloc.CountAlloc(trace.StageIngest, 1, engine.TupleAllocBytes)
		}
		if j.e.opt.Incremental && j.e.Cfg.Mode == engine.OnArrival {
			// A late probe landing inside this joiner's cached window
			// would be missed by the edge-delta scans, so fold it into
			// the cached aggregate directly — the entry then stays
			// exact without rescanning. Probes above the cached hi are
			// picked up by the next delta-add (not folded here, which
			// would double-count); probes a *teammate* inserts into an
			// interior another joiner cached remain the documented
			// arrival-mode approximation, bounded by the lateness.
			// (OnWatermark mode needs none of this: finalized windows
			// lie wholly below the watermark, which late probes
			// cannot.)
			if e := j.inc[t.Key]; e != nil && e.mask != 0 && t.TS >= e.lo && t.TS <= e.hi {
				switch {
				case e.slide == nil:
					e.st.Add(t.Val)
				case len(e.late) < lateCap:
					// A FIFO two-stacks window cannot absorb an
					// interior insert; park it in the late
					// buffer, folded at query time.
					before := cap(e.late)
					e.late = append(e.late, tsval{t.TS, t.Val})
					engine.CountSliceGrowth(j.e.Alloc, trace.StageIngest, before, cap(e.late), engine.TSValAllocBytes)
				default:
					e.mask = 0 // too many stragglers: rebuild
				}
			}
		}
		return
	}
	if j.e.Cfg.Mode == engine.OnWatermark {
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
	if j.e.Cfg.Mode == engine.OnWatermark {
		// Publish progress first (a peer may be waiting on us), then
		// finalize everything complete under the finalize gate, then
		// advertise how far we have finalized — eviction is gated on
		// the latter so no peer evicts probes a pending window of ours
		// still needs. With shared processing the gate is the global
		// minimum processed watermark (a teammate's index must be
		// complete before we read it); without sharing all of a key's
		// probes flow through this joiner's own ring, so the local
		// watermark suffices and matches the local eviction gate.
		j.e.processed.Update(j.id, wm)
		gwm := wm
		if j.e.opt.SharedProcessing {
			gwm = j.e.processed.Global()
		}
		j.finalize(gwm)
		j.e.finalized.Update(j.id, gwm)
	} else {
		j.e.processed.Update(j.id, wm)
	}
	j.maybeSweep(wm)
}

// onDrained flushes the remaining pending windows after the ring closed:
// the global minimum keeps rising as peers process the final watermark, so
// this terminates once every joiner has drained its ring.
func (j *joiner) onDrained() {
	for j.pending.Len() > 0 {
		gwm := j.e.processed.Global()
		j.finalize(gwm)
		j.e.finalized.Update(j.id, gwm)
		runtime.Gosched()
	}
	j.e.finalized.Update(j.id, engine.FinalWatermark)
}

// finalize emits every pending base tuple whose window is complete under
// the global watermark gwm.
func (j *joiner) finalize(gwm tuple.Time) {
	if gwm == watermark.MinTime {
		return
	}
	for {
		b, ok := j.pending.PopIfBefore(gwm - j.e.Cfg.Window.Fol)
		if !ok {
			return
		}
		j.join(b)
	}
}

// evictWM returns the watermark that gates eviction. With shared
// processing the joiner's index has remote readers, so it must take the
// *global minimum* progress — processed watermarks in arrival mode,
// finalized watermarks in watermark mode (a peer's pending window may need
// our probes until the peer has finalized past it). Without sharing the
// local watermark suffices: reads and evictions are same-goroutine.
func (j *joiner) evictWM() tuple.Time {
	if !j.e.opt.SharedProcessing {
		return j.wm
	}
	if j.e.Cfg.Mode == engine.OnWatermark {
		return j.e.finalized.Global()
	}
	return j.e.processed.Global()
}

// evictBound converts a gate watermark into the eviction timestamp bound.
// OnWatermark retains an extra FOL (pending windows reach forward), and
// incremental mode retains one extra window length: a cached aggregate may
// still need to *subtract* probes up to a full window behind the current
// boundary, so they must stay physically readable (see incEntry).
func (j *joiner) evictBound(wm tuple.Time) tuple.Time {
	if wm == watermark.MinTime {
		return watermark.MinTime
	}
	b := wm - j.e.Cfg.Window.Pre
	if j.e.Cfg.Mode == engine.OnWatermark {
		b -= j.e.Cfg.Window.Fol
	}
	if j.e.opt.Incremental {
		b -= j.e.Cfg.Window.Len()
	}
	return b
}

// maybeSweep evicts expired probes from the joiner's own index at most
// every half retention horizon.
func (j *joiner) maybeSweep(wm tuple.Time) {
	horizon := j.e.Cfg.Window.Len() + j.e.Cfg.Window.Lateness
	if j.lastSweep != watermark.MinTime && wm-j.lastSweep <= horizon/2+1 {
		return
	}
	j.lastSweep = wm
	gate := j.evictWM()
	if bound := j.evictBound(gate); bound != watermark.MinTime {
		if n := int64(j.ix.EvictBefore(bound)); n > 0 {
			// Mirror live so the serving layer's memory guard can read
			// buffered state without waiting for Drain; sweeps are
			// amortized, so the shared atomic sees one add per sweep.
			j.e.Stats().Evicted.Add(n)
		}
	}
}

// readMask returns the set of indices that may hold live probes for the
// key.
func (j *joiner) readMask(k tuple.Key) uint64 {
	if !j.e.opt.SharedProcessing {
		return 1 << uint(j.id)
	}
	return j.e.masks[j.e.partition(k)].Load()
}

// scanTeam visits probes of key k with lo <= ts <= hi across every index
// in the mask and returns the number visited (which equals the number
// matched: the time-travel index only surfaces in-window tuples).
func (j *joiner) scanTeam(mask uint64, k tuple.Key, lo, hi tuple.Time, fn func(ts tuple.Time, val float64) bool) int {
	visited := 0
	for m := mask; m != 0; m &= m - 1 {
		member := bits.TrailingZeros64(m)
		visited += j.e.js[member].ix.ScanWindow(k, lo, hi, fn)
	}
	return visited
}

// join computes one base tuple's window aggregate and emits the result.
func (j *joiner) join(base tuple.Tuple) {
	lo, hi := j.e.Cfg.Window.Bounds(base.TS)
	mask := j.readMask(base.Key)

	sp := j.e.Dispatch(j.id, base)

	var st agg.State
	switch {
	case sp != nil:
		// Traced bases take the full-scan two-pass path so probe and
		// aggregate get distinct timings. The incremental cache is left
		// untouched: entries self-validate against their stored bounds
		// and mask, so the next untraced base simply slides from the
		// cached window as if this one had never happened.
		st = j.joinFull(base.Key, mask, lo, hi, sp)
	case j.e.opt.Incremental && j.e.Cfg.Agg.Invertible():
		st = j.joinIncremental(base, mask, lo, hi)
	case j.e.opt.Incremental:
		st = j.joinSliding(base, mask, lo, hi)
	default:
		st = j.joinFull(base.Key, mask, lo, hi, nil)
	}
	j.e.Emit(j.id, base, &st, sp)
}

// joinFull recomputes the aggregate from scratch over the window.
func (j *joiner) joinFull(k tuple.Key, mask uint64, lo, hi tuple.Time, sp *trace.Span) agg.State {
	st := j.e.NewState()
	if j.e.Cfg.Instrument || sp != nil {
		j.e.JoinTimed(j.id, &st, sp, func(dst []engine.TSVal) ([]engine.TSVal, int) {
			visited := j.scanTeam(mask, k, lo, hi, func(ts tuple.Time, val float64) bool {
				dst = append(dst, engine.TSVal{TS: ts, Val: val})
				return true
			})
			return dst, visited
		})
		return st
	}
	j.scanTeam(mask, k, lo, hi, func(ts tuple.Time, val float64) bool {
		st.AddAt(ts, val)
		return true
	})
	return st
}

// joinIncremental slides the key's cached window aggregate to the new
// bounds, adding and subtracting only the edge deltas; it falls back to a
// full scan when there is no usable cache (first window of a key, no
// overlap, team change, or the cached left edge has been evicted past).
func (j *joiner) joinIncremental(base tuple.Tuple, mask uint64, lo, hi tuple.Time) agg.State {
	entry := j.inc[base.Key]
	usable := entry != nil &&
		entry.mask == mask &&
		lo <= entry.hi && hi >= entry.lo && // windows overlap
		entry.lo >= j.evictBound(j.evictWM()) // subtraction range still physically readable

	if !usable {
		st := j.joinFull(base.Key, mask, lo, hi, nil)
		if entry == nil {
			entry = &incEntry{}
			j.inc[base.Key] = entry
		}
		entry.lo, entry.hi, entry.mask, entry.st = lo, hi, mask, st
		return st
	}

	st := &entry.st
	// Left edge.
	if lo > entry.lo {
		j.scanTeam(mask, base.Key, entry.lo, lo-1, func(_ tuple.Time, val float64) bool {
			st.Remove(val)
			return true
		})
	} else if lo < entry.lo {
		j.scanTeam(mask, base.Key, lo, entry.lo-1, func(_ tuple.Time, val float64) bool {
			st.Add(val)
			return true
		})
	}
	// Right edge.
	if hi > entry.hi {
		j.scanTeam(mask, base.Key, entry.hi+1, hi, func(_ tuple.Time, val float64) bool {
			st.Add(val)
			return true
		})
	} else if hi < entry.hi {
		j.scanTeam(mask, base.Key, hi+1, entry.hi, func(_ tuple.Time, val float64) bool {
			st.Remove(val)
			return true
		})
	}
	entry.lo, entry.hi = lo, hi
	if j.e.Cfg.Instrument {
		// Incremental scans only touch in-window edges; effectiveness
		// stays 1 by construction, so record the join as fully
		// effective.
		j.e.Stats().Effect[j.id].Observe(1, 1)
	}
	return entry.st
}

// joinSliding is the incremental path for non-invertible operators: a
// two-stacks sliding window per (joiner, key) absorbs the new right edge
// and expels the stale left edge in amortized O(1) per entry. Windows must
// move forward; a regression, team change, or interior late insert rebuilds
// from a full scan.
func (j *joiner) joinSliding(base tuple.Tuple, mask uint64, lo, hi tuple.Time) agg.State {
	entry := j.inc[base.Key]
	usable := entry != nil &&
		entry.slide != nil &&
		entry.mask == mask &&
		lo >= entry.lo && hi >= entry.hi

	if !usable {
		if entry == nil {
			entry = &incEntry{}
			j.inc[base.Key] = entry
		}
		if entry.slide == nil {
			entry.slide = agg.NewSliding(j.e.Cfg.Agg)
		} else {
			entry.slide.Reset()
		}
		entry.late = entry.late[:0]
		j.pushSorted(entry.slide, mask, base.Key, lo, hi)
	} else {
		if hi > entry.hi {
			j.pushSorted(entry.slide, mask, base.Key, entry.hi+1, hi)
		}
		entry.slide.PopBefore(lo)
		// Slide the late buffer too.
		keep := entry.late[:0]
		for _, p := range entry.late {
			if p.ts >= lo {
				keep = append(keep, p)
			}
		}
		entry.late = keep
	}
	entry.lo, entry.hi, entry.mask = lo, hi, mask
	st := entry.slide.Aggregate()
	for _, p := range entry.late {
		st.AddAt(p.ts, p.val)
	}
	return st
}

// pushSorted scans [lo, hi] across the team indices and pushes the entries
// into the sliding window in timestamp order. A single-member mask scans in
// order directly; a multi-member merge is nearly sorted (each member is
// sorted), so an allocation-free insertion sort beats sort.Slice on the
// hot path.
func (j *joiner) pushSorted(s *agg.Sliding, mask uint64, k tuple.Key, lo, hi tuple.Time) {
	if mask&(mask-1) == 0 {
		member := bits.TrailingZeros64(mask)
		j.e.js[member].ix.ScanWindow(k, lo, hi, func(ts tuple.Time, val float64) bool {
			s.Push(ts, val)
			return true
		})
		return
	}
	pairsCap := cap(j.pairs)
	j.pairs = j.pairs[:0]
	j.scanTeam(mask, k, lo, hi, func(ts tuple.Time, val float64) bool {
		j.pairs = append(j.pairs, tsval{ts, val})
		return true
	})
	engine.CountSliceGrowth(j.e.Alloc, trace.StageProbe, pairsCap, cap(j.pairs), engine.TSValAllocBytes)
	for i := 1; i < len(j.pairs); i++ {
		p := j.pairs[i]
		q := i - 1
		for q >= 0 && j.pairs[q].ts > p.ts {
			j.pairs[q+1] = j.pairs[q]
			q--
		}
		j.pairs[q+1] = p
	}
	for _, p := range j.pairs {
		s.Push(p.ts, p.val)
	}
}

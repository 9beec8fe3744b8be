// Package engine defines the contract shared by every online-interval-join
// implementation in the repository (Key-OIJ, Scale-OIJ, SplitJoin, the
// OpenMLDB-style baseline): configuration, the driver-facing lifecycle, the
// result sink, runtime statistics, and the common joiner plumbing (SPSC
// transport, in-band watermark control tuples, key hashing). Core, which
// every engine embeds, writes that framework once — the transport, the
// statistics, the sink's recorders, the emit, the instrumented join and the
// introspection — so that measured differences between algorithms come
// from their join designs and not from incidental framework differences.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"oij/internal/agg"
	"oij/internal/metrics"
	"oij/internal/queue"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
	"oij/internal/window"
)

// EmitMode selects when a base tuple's aggregate is emitted.
type EmitMode uint8

const (
	// OnArrival emits the aggregate over currently buffered probes the
	// moment the base tuple is processed — the online-serving semantics
	// of OpenMLDB feature extraction (a request is answered now, from
	// the data present now). Latency excludes event-time completeness
	// waits; out-of-order probes that arrive after the base tuple do not
	// retroactively update its result.
	OnArrival EmitMode = iota
	// OnWatermark buffers base tuples and emits once the watermark
	// guarantees the window is complete: the exact event-time semantics
	// ("100% accuracy") OpenMLDB applications assume. Results are
	// deterministic regardless of thread interleaving, which the
	// cross-engine correctness tests rely on.
	OnWatermark
)

// String implements fmt.Stringer.
func (m EmitMode) String() string {
	if m == OnArrival {
		return "on-arrival"
	}
	return "on-watermark"
}

// FinalWatermark is the in-band watermark injected by Drain to flush every
// pending window. It is far below MaxInt64 so ts+FOL arithmetic cannot
// overflow.
const FinalWatermark tuple.Time = math.MaxInt64 / 4

// Config configures any engine.
type Config struct {
	// Joiners is the number of parallel joiner goroutines.
	Joiners int
	// Window is the interval-join window and lateness.
	Window window.Spec
	// Agg is the aggregation operator applied per base tuple.
	Agg agg.Func
	// Mode selects arrival or watermark emission (see EmitMode).
	Mode EmitMode
	// QueueCap is the per-joiner transport ring capacity (default 8192).
	QueueCap int
	// WatermarkEvery injects an in-band watermark after this many
	// ingested tuples (default 256). Watermarks drive eviction in both
	// modes and finalization in OnWatermark mode.
	WatermarkEvery int
	// Instrument enables the lookup/match/other time breakdown and
	// effectiveness accounting (adds two clock reads per join).
	Instrument bool
	// TrackBusy enables live per-joiner busy-time counters for the
	// utilization trace of Fig. 14.
	TrackBusy bool
	// AdaptiveLateness derives the watermark lag from the observed
	// tardiness distribution instead of Window.Lateness — the paper's
	// "tunable accuracy without prior knowledge" future-work item.
	// Tuples later than the online estimate may lose matches; the
	// quantile tunes that accuracy/buffer-space trade-off.
	AdaptiveLateness bool
	// AdaptiveQuantile is the tardiness quantile the estimate covers
	// (default 0.999).
	AdaptiveQuantile float64
	// Flight, when set, receives watermark-advance events from the
	// transport (nil disables; trace.Flight methods are nil-safe so the
	// hot path pays only the advance check).
	Flight *trace.Flight
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Joiners <= 0 {
		c.Joiners = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8192
	}
	if c.WatermarkEvery <= 0 {
		c.WatermarkEvery = 256
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Joiners < 1 {
		return fmt.Errorf("engine: joiners must be >= 1, got %d", c.Joiners)
	}
	return c.Window.Validate()
}

// Sink receives join results. Emit may be called concurrently from
// different joiner indexes but never concurrently with the same index, so
// per-joiner sharded sinks need no locking.
type Sink interface {
	Emit(joiner int, r tuple.Result)
}

// BatchSink is implemented by sinks that coalesce results: Emit may hold
// a result until EndBatch closes the batch it belongs to, so a sink can
// hand a whole batch on in one step. Core asserts the sink for it once and
// calls EndBatch(joiner) on the goroutine that emits as joiner — after
// every joiner ring batch and after OnDrained, and from SplitJoin's merger
// after each pass — so per-joiner batches need no locking.
type BatchSink interface {
	EndBatch(joiner int)
}

// StageRecorder is implemented by sinks that attach per-request trace
// spans (the serving path's sampled tracing). Core asserts the sink for
// it once, at construction, like LatencyRecorder; SpanFor returns nil for
// unsampled requests, and every trace.Span method is nil-safe, so joiners
// stamp unconditionally. Safe from any joiner goroutine.
type StageRecorder interface {
	SpanFor(baseSeq uint64) *trace.Span
}

// AllocRecorder is implemented by sinks that account hot-path allocations
// exactly, per stage — the always-on baseline for the allocation-free
// hot-path work. Core asserts the sink for it at construction (like
// StageRecorder); engines report only when an allocation actually happened
// (slice growth, new state object), so the disabled path costs one nil
// check. Safe from any joiner goroutine: the counters behind it are
// lock-free.
type AllocRecorder interface {
	CountAlloc(st trace.Stage, objs, bytes int64)
}

// Accounting sizes for AllocRecorder reports. Slice growth is exact
// (capacity delta × element size); aggregation states are interface-boxed
// small structs whose concrete size varies by aggregate, so they are
// booked at a nominal fixed size — the objs count is the signal ROADMAP
// item 2 needs (states-per-tuple), the bytes are an order-of-magnitude
// aid.
const StateAllocBytes = 48

// TupleAllocBytes and TSValAllocBytes are the element sizes used when
// booking probe-buffer and scratch-slice growth.
var (
	TupleAllocBytes = int64(unsafe.Sizeof(tuple.Tuple{}))
	TSValAllocBytes = int64(unsafe.Sizeof(TSVal{}))
)

// CountSliceGrowth books one slice reallocation with rec when the
// capacity changed across an append. The disabled path (nil rec) is a
// single comparison, cheap enough for every hot-path append site.
func CountSliceGrowth(rec AllocRecorder, st trace.Stage, beforeCap, afterCap int, elemBytes int64) {
	if rec != nil && afterCap != beforeCap {
		rec.CountAlloc(st, 1, int64(afterCap-beforeCap)*elemBytes)
	}
}

// CountStateAlloc books one aggregation-state allocation.
func CountStateAlloc(rec AllocRecorder, st trace.Stage) {
	if rec != nil {
		rec.CountAlloc(st, 1, StateAllocBytes)
	}
}

// Engine is the driver-facing lifecycle every implementation provides.
type Engine interface {
	// Name identifies the algorithm ("key-oij", "scale-oij", ...).
	Name() string
	// Start launches the joiner goroutines.
	Start()
	// Ingest feeds one tuple in arrival order. Single-threaded: only the
	// driver goroutine calls it, between Start and Drain.
	Ingest(t tuple.Tuple)
	// Drain flushes in-flight work (injecting a final watermark so every
	// pending window closes), stops the joiners, and waits for them.
	Drain()
	// Heartbeat re-broadcasts the current watermark so joiners
	// re-evaluate pending windows while the input is idle — long-lived
	// serving deployments call it periodically; batch replays never
	// need it. Driver goroutine only, like Ingest.
	Heartbeat()
	// Stats returns run statistics. Valid after Drain; the per-joiner
	// Processed, Busy, and Effect counters are additionally safe to
	// sample live (they are single-writer atomics).
	Stats() *Stats
	// Introspector exposes the live transport state to observers.
	Introspector
}

// Introspector is the live transport state every engine exposes to the
// observability layer (Core implements it once for all of them). All
// methods are safe from any goroutine while the engine runs — they read
// atomics published by the driver.
type Introspector interface {
	// QueueDepths returns the current depth of each joiner's input ring.
	QueueDepths() []int
	// Watermark returns the newest broadcast watermark (watermark.MinTime
	// before the first broadcast).
	Watermark() tuple.Time
	// MaxEventTS returns the newest observed event timestamp
	// (watermark.MinTime before the first tuple). MaxEventTS − Watermark
	// is the live watermark lag.
	MaxEventTS() tuple.Time
	// Stalls reports the transport's push-stall state (see StallSnapshot).
	Stalls() StallSnapshot
}

// StallSnapshot is the stall detector's view of the driver→joiner rings:
// how often the driver had to park waiting for ring space, and for each
// ring how long the driver's current push (if any) has been blocked. A
// joiner whose BlockedFor keeps growing is wedged — its consumer stopped
// draining — and the watchdog surfaces it instead of letting the driver
// spin invisibly.
type StallSnapshot struct {
	// Parks counts driver parks (bounded sleeps after the spin budget was
	// exhausted) across all rings since startup.
	Parks int64
	// BlockedFor[i] is how long the driver's in-progress push to ring i
	// has been blocked (0 when the last push completed normally).
	BlockedFor []time.Duration
}

// Wedged returns the indexes of rings blocked longer than threshold.
func (s StallSnapshot) Wedged(threshold time.Duration) []int {
	var out []int
	for i, d := range s.BlockedFor {
		if d >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// Stats aggregates what the experiments measure.
type Stats struct {
	// Processed[i] counts data tuples handled by joiner i (the paper's
	// per-joiner workload W_i).
	Processed []atomic.Int64
	// Busy[i] accumulates nanoseconds joiner i spent processing, for
	// utilization sampling (only maintained with Config.TrackBusy).
	Busy []atomic.Int64
	// Breakdown[i] is joiner i's lookup/match/other split (only with
	// Config.Instrument); owned by joiner i until Drain returns.
	Breakdown []metrics.Breakdown
	// Effect[i] is joiner i's effectiveness accumulator (Eq. 1; only
	// with Config.Instrument).
	Effect []metrics.Effectiveness
	// Evicted counts probe tuples expired from buffers.
	Evicted atomic.Int64
	// Results counts emitted results.
	Results atomic.Int64
	// Extra carries engine-specific counters (reschedules, broadcast
	// tuples, lock waits); written by the engine before Drain returns.
	Extra map[string]int64
}

// NewStats sizes per-joiner slots.
func NewStats(joiners int) *Stats {
	return &Stats{
		Processed: make([]atomic.Int64, joiners),
		Busy:      make([]atomic.Int64, joiners),
		Breakdown: make([]metrics.Breakdown, joiners),
		Effect:    make([]metrics.Effectiveness, joiners),
		Extra:     map[string]int64{},
	}
}

// Loads renders Processed as float64 workloads for Unbalancedness (Eq. 2).
func (s *Stats) Loads() []float64 {
	out := make([]float64, len(s.Processed))
	for i := range s.Processed {
		out[i] = float64(s.Processed[i].Load())
	}
	return out
}

// TotalProcessed sums Processed across joiners.
func (s *Stats) TotalProcessed() int64 {
	var n int64
	for i := range s.Processed {
		n += s.Processed[i].Load()
	}
	return n
}

// MergedBreakdown folds the per-joiner breakdowns.
func (s *Stats) MergedBreakdown() metrics.Breakdown {
	var b metrics.Breakdown
	for i := range s.Breakdown {
		b.Add(s.Breakdown[i])
	}
	return b
}

// MergedEffectiveness folds the per-joiner effectiveness accumulators.
// Safe to call live: the accumulators are single-writer atomics.
func (s *Stats) MergedEffectiveness() float64 {
	var e metrics.Effectiveness
	for i := range s.Effect {
		e.Merge(&s.Effect[i])
	}
	return e.Value()
}

// watermarkTuple marks in-band control tuples: Side == watermarkSide and TS
// holds the watermark value.
const watermarkSide tuple.Side = 255

// WatermarkTuple builds an in-band watermark control tuple.
func WatermarkTuple(wm tuple.Time) tuple.Tuple {
	return tuple.Tuple{TS: wm, Side: watermarkSide}
}

// IsWatermark reports whether t is an in-band watermark.
func IsWatermark(t tuple.Tuple) bool { return t.Side == watermarkSide }

// Transport owns the driver→joiner rings plus the watermark cadence shared
// by every engine. Engines embed it and supply a routing decision per
// tuple.
type Transport struct {
	Cfg      Config
	Rings    []*queue.SPSC[tuple.Tuple]
	assign   *watermarkAssigner
	adaptive *watermark.Adaptive
	wg       sync.WaitGroup

	// pubMax/pubWM mirror the driver-owned watermark state for concurrent
	// observers (the admin scrape path). The driver stores, anyone loads;
	// the cost on the ingest path is one uncontended atomic store.
	pubMax atomic.Int64
	pubWM  atomic.Int64

	// stall is the per-ring stall state behind StallSnapshot. The driver
	// writes, the watchdog reads; padded so the scrape never bounces the
	// driver's cache line.
	stall []ringStall
	parks atomic.Int64
}

// ringStall records one ring's blocked-push state.
type ringStall struct {
	// blockedSince is the wall-clock nanos when the driver's current push
	// to this ring exhausted its spin budget (0 = not blocked).
	blockedSince atomic.Int64
	_            [cacheLineSize - 8]byte
}

const cacheLineSize = 64

// Push's overload behavior: spin pushSpinBudget times yielding the
// processor, then park in pushParkDelay sleeps. Spinning keeps the
// uncontended hot path as fast as before (a full ring normally drains in
// microseconds); parking caps the CPU a wedged joiner can burn and gives
// the stall detector a timestamp to watch.
const (
	pushSpinBudget = 256
	pushParkDelay  = 100 * time.Microsecond
)

// watermarkAssigner tracks the driver-side max event timestamp.
type watermarkAssigner struct {
	maxTS tuple.Time
	seen  bool
	count int
	total int64
	// lastWM is the newest watermark recorded to the flight recorder, so
	// a heartbeat rebroadcast of an unchanged watermark is not an event.
	lastWM     tuple.Time
	lastWMSeen bool
}

// NewTransport builds rings for cfg.Joiners joiners.
func NewTransport(cfg Config) *Transport {
	t := &Transport{Cfg: cfg, assign: &watermarkAssigner{}}
	t.pubMax.Store(int64(watermark.MinTime))
	t.pubWM.Store(int64(watermark.MinTime))
	if cfg.AdaptiveLateness {
		t.adaptive = watermark.NewAdaptive(cfg.AdaptiveQuantile, 0, 0)
	}
	t.Rings = make([]*queue.SPSC[tuple.Tuple], cfg.Joiners)
	for i := range t.Rings {
		t.Rings[i] = queue.NewSPSC[tuple.Tuple](cfg.QueueCap)
	}
	t.stall = make([]ringStall, cfg.Joiners)
	return t
}

// Push blocks until the tuple fits in ring i (backpressure): a bounded
// spin, then park-and-retry with stall accounting so a wedged consumer
// shows up on the watchdog instead of pegging the driver core forever.
func (t *Transport) Push(i int, tp tuple.Tuple) {
	if t.Rings[i].TryPush(tp) {
		return
	}
	for spin := 0; spin < pushSpinBudget; spin++ {
		runtime.Gosched()
		if t.Rings[i].TryPush(tp) {
			return
		}
	}
	st := &t.stall[i]
	st.blockedSince.CompareAndSwap(0, time.Now().UnixNano())
	for {
		t.parks.Add(1)
		time.Sleep(pushParkDelay)
		if t.Rings[i].TryPush(tp) {
			st.blockedSince.Store(0)
			return
		}
	}
}

// Stalls snapshots the push-stall state. Safe from any goroutine.
func (t *Transport) Stalls() StallSnapshot {
	s := StallSnapshot{Parks: t.parks.Load(), BlockedFor: make([]time.Duration, len(t.stall))}
	now := time.Now().UnixNano()
	for i := range t.stall {
		if since := t.stall[i].blockedSince.Load(); since != 0 {
			s.BlockedFor[i] = time.Duration(now - since)
		}
	}
	return s
}

// Broadcast pushes tp to every ring (watermarks; SplitJoin data tuples).
func (t *Transport) Broadcast(tp tuple.Tuple) {
	for i := range t.Rings {
		t.Push(i, tp)
	}
}

// Observe records a data tuple's event timestamp and, every
// WatermarkEvery tuples, broadcasts the current watermark in-band:
// maxSeenTS minus the configured lateness, or minus the online tardiness
// estimate when AdaptiveLateness is set. Driver-side only.
func (t *Transport) Observe(ts tuple.Time) {
	a := t.assign
	var wm tuple.Time
	if t.adaptive != nil {
		wm = t.adaptive.Observe(ts)
	}
	if !a.seen || ts > a.maxTS {
		a.maxTS = ts
		a.seen = true
		t.pubMax.Store(int64(ts))
	}
	if t.adaptive == nil {
		wm = a.maxTS - t.Cfg.Window.Lateness
	}
	a.count++
	a.total++
	if a.count >= t.Cfg.WatermarkEvery {
		a.count = 0
		t.pubWM.Store(int64(wm))
		t.recordWM(wm)
		t.Broadcast(WatermarkTuple(wm))
	}
}

// recordWM logs a watermark advance to the flight recorder (driver-side
// only; no-op when the watermark did not move or no recorder is set).
func (t *Transport) recordWM(wm tuple.Time) {
	if t.Cfg.Flight == nil {
		return
	}
	a := t.assign
	if a.lastWMSeen && wm <= a.lastWM {
		return
	}
	a.lastWM = wm
	a.lastWMSeen = true
	t.Cfg.Flight.Record(trace.CompWatermark, trace.EvWatermarkAdvance, uint64(wm), uint64(a.total))
}

// Heartbeat re-broadcasts the current watermark (a no-op before any tuple
// was observed). Driver-side only.
func (t *Transport) Heartbeat() {
	if !t.assign.seen {
		return
	}
	wm := t.assign.maxTS - t.Cfg.Window.Lateness
	if t.adaptive != nil {
		wm = t.adaptive.Current()
	}
	t.pubWM.Store(int64(wm))
	t.recordWM(wm)
	t.Broadcast(WatermarkTuple(wm))
}

// QueueDepths samples the live depth of every joiner ring.
func (t *Transport) QueueDepths() []int {
	out := make([]int, len(t.Rings))
	for i, r := range t.Rings {
		out[i] = r.Len()
	}
	return out
}

// Watermark returns the newest broadcast watermark (watermark.MinTime
// before the first broadcast). Safe from any goroutine.
func (t *Transport) Watermark() tuple.Time { return tuple.Time(t.pubWM.Load()) }

// MaxEventTS returns the newest observed event timestamp (watermark.MinTime
// before the first tuple). Safe from any goroutine.
func (t *Transport) MaxEventTS() tuple.Time { return tuple.Time(t.pubMax.Load()) }

// EstimatedLateness reports the adaptive tardiness estimate (0 when
// adaptive lateness is off).
func (t *Transport) EstimatedLateness() tuple.Time {
	if t.adaptive == nil {
		return 0
	}
	return t.adaptive.EstimatedLateness()
}

// Finish broadcasts the final watermark, closes every ring, and waits for
// the joiner goroutines registered via Go.
func (t *Transport) Finish() {
	t.Broadcast(WatermarkTuple(FinalWatermark))
	for _, r := range t.Rings {
		r.Close()
	}
	t.wg.Wait()
}

// JoinerHooks are the callbacks a joiner loop dispatches to. OnTuple
// receives data tuples, OnWatermark in-band watermarks, and OnDrained (may
// be nil) runs once after the ring is closed and empty — engines that need
// cross-joiner synchronization to flush their last pending windows do it
// there. OnBatchEnd (may be nil) runs after every batch popped from the
// ring and after OnDrained. If Busy is non-nil the loop accumulates
// processing time into it. NoEmit marks a joiner that never emits results
// itself (SplitJoin's, whose merger emits for them), so Core does not close
// result batches on its goroutine.
type JoinerHooks struct {
	OnTuple     func(tuple.Tuple)
	OnWatermark func(tuple.Time)
	OnDrained   func()
	OnBatchEnd  func()
	Busy        *atomic.Int64
	NoEmit      bool
}

// Go launches a joiner loop on ring i.
func (t *Transport) Go(i int, h JoinerHooks) {
	t.wg.Add(1)
	ring := t.Rings[i]
	go func() {
		defer t.wg.Done()
		batch := make([]tuple.Tuple, 64)
		for {
			n := ring.PopBatch(batch)
			if n == 0 {
				if ring.Closed() && ring.Len() == 0 {
					if h.OnDrained != nil {
						h.OnDrained()
					}
					if h.OnBatchEnd != nil {
						h.OnBatchEnd()
					}
					return
				}
				ring.Wait()
				continue
			}
			var start time.Time
			if h.Busy != nil {
				start = time.Now()
			}
			for _, tp := range batch[:n] {
				if IsWatermark(tp) {
					h.OnWatermark(tp.TS)
				} else {
					h.OnTuple(tp)
				}
			}
			if h.OnBatchEnd != nil {
				h.OnBatchEnd()
			}
			if h.Busy != nil {
				h.Busy.Add(int64(time.Since(start)))
			}
		}
	}()
}

// HashKey mixes a join key into a well-distributed 64-bit hash
// (splitmix64 finalizer), so partitioning does not depend on key encoding.
func HashKey(k tuple.Key) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FillOther completes the per-joiner breakdowns after a drained
// instrumented run: the "other" category is the joiner's total busy time
// minus the measured lookup and match portions.
func FillOther(s *Stats) {
	for i := range s.Breakdown {
		other := time.Duration(s.Busy[i].Load()) - s.Breakdown[i].Lookup - s.Breakdown[i].Match
		if other < 0 {
			other = 0
		}
		s.Breakdown[i].Other = other
	}
}

// TSVal is a (timestamp, value) scratch pair engines collect during
// instrumented two-pass joins, so timestamped aggregations (last/first)
// stay exact under instrumentation.
type TSVal struct {
	TS  tuple.Time
	Val float64
}

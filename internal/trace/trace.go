// Package trace is the request-path attribution layer: sampled per-request
// stage spans (where did a feature request's latency go — ingest funnel,
// queue wait, joiner dispatch, index probe, aggregation, emit, WAL append,
// or the TCP write) and an always-on flight recorder (flight.go) that keeps
// the seconds of control-plane history leading up to an eviction, stall, or
// memory-pressure transition.
//
// Both follow the repository's SWMR discipline. A span's stage slots are
// per-stage atomics written by whichever single goroutine owns the request
// at that pipeline position (session reader → ingest loop → joiner →
// writer), so the hot path takes no locks; the only multi-writer case is a
// broadcast engine accumulating probe/aggregate time from several joiners,
// which the atomic adds absorb. Sampling is deterministic — every Nth
// admitted request, from a shared counter — so a perf run is reproducible
// and no math/rand sits on the hot path.
package trace

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one pipeline position of a request span, in request order.
type Stage int

// The eight stages of a served request. WALAppend is the durability cost
// observed at the moment the request crossed the ingest loop (the most
// recent probe append's duration — base frames themselves are not logged),
// zero when no WAL is configured.
const (
	StageIngest    Stage = iota // session reader: admission + funnel enqueue
	StageQueueWait              // funnel wait: enqueue → ingest-loop dequeue
	StageDispatch               // engine dispatch: ring push → joiner pickup
	StageProbe                  // index/buffer probe: locating window tuples
	StageAggregate              // folding matched tuples into the aggregate
	StageEmit                   // join end → writer pickup (sink + out queue)
	StageWALAppend              // durability cost in the pipeline (see above)
	StageTCPWrite               // encoding + writing the result frame
	NumStages
)

// stageNames are the JSON/export keys, in Stage order.
var stageNames = [NumStages]string{
	"ingest", "queue_wait", "dispatch", "probe",
	"aggregate", "emit", "wal_append", "tcp_write",
}

// String returns the stage's export name.
func (s Stage) String() string { return stageNames[s] }

// epoch anchors the package's monotonic clock: stamps are nanoseconds since
// process start, comparable across goroutines and immune to wall-clock
// steps (time.Since reads Go's monotonic reading).
var epoch = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// Span is one sampled request's stage breakdown. Stage slots are atomics:
// each pipeline position has a single writer, except broadcast engines
// where several joiners add probe/aggregate time concurrently.
type Span struct {
	// ReqID is the session-local (client-visible) request sequence — the
	// number oijsend prints, so client latency lines join server spans.
	ReqID uint64
	// Seq is the engine-global base sequence (set by the ingest loop
	// before the span is registered).
	Seq uint64
	// Key and TS echo the request tuple.
	Key uint64
	TS  int64
	// StartWallNS is the wall-clock admission time (UnixNano), for export.
	StartWallNS int64

	stages     [NumStages]atomic.Int64
	pushed     atomic.Int64 // monotonic ns at engine ring push
	joined     atomic.Int64 // monotonic ns when the join finished
	joiner     atomic.Int32
	dispatched atomic.Bool // first-joiner gate for broadcast engines
	dropped    atomic.Bool // abandoned before the result reached the wire
	registered bool        // owned by the tracer
}

// NewSpan starts a span at admission.
func NewSpan(reqID, key uint64, ts int64) *Span {
	sp := &Span{ReqID: reqID, Key: key, TS: ts, StartWallNS: time.Now().UnixNano()}
	sp.joiner.Store(-1)
	return sp
}

// Add accumulates d into a stage slot.
func (sp *Span) Add(st Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.stages[st].Add(int64(d))
}

// StampPushed records the engine hand-off time; the dispatch stage measures
// from here to the joiner's pickup.
func (sp *Span) StampPushed() {
	if sp == nil {
		return
	}
	sp.pushed.Store(now())
}

// StampDispatched records the joiner pickup, closing the dispatch stage.
// Broadcast engines call it from every joiner; only the first closes the
// stage (the dispatch wait is one wall-clock interval, not a per-joiner
// cost), and that joiner is recorded as the span's owner.
func (sp *Span) StampDispatched(joiner int) {
	if sp == nil || !sp.dispatched.CompareAndSwap(false, true) {
		return
	}
	sp.joiner.Store(int32(joiner))
	if p := sp.pushed.Load(); p != 0 {
		sp.stages[StageDispatch].Store(now() - p)
	}
}

// StampJoined marks the end of join processing; the emit stage measures
// from here to the writer's pickup. With broadcast engines the last joiner
// to finish wins, which is exactly when the merged result can exist.
func (sp *Span) StampJoined() {
	if sp == nil {
		return
	}
	sp.joined.Store(now())
}

// StampWriterPickup closes the emit stage: join end → the session writer
// dequeued the result.
func (sp *Span) StampWriterPickup() {
	if sp == nil {
		return
	}
	if j := sp.joined.Load(); j != 0 {
		sp.stages[StageEmit].Store(now() - j)
	}
}

// Joiner returns the owning joiner index (-1 before dispatch).
func (sp *Span) Joiner() int { return int(sp.joiner.Load()) }

// Dropped reports whether the span was abandoned before its result reached
// the wire (eviction, deadline NACK, disconnect).
func (sp *Span) Dropped() bool { return sp.dropped.Load() }

// SpanSnap is one completed span's JSON rendering. All eight stage keys are
// always present, zero-valued stages included.
type SpanSnap struct {
	ReqID       uint64           `json:"req_id"`
	Seq         uint64           `json:"seq"`
	Key         uint64           `json:"key"`
	TS          int64            `json:"ts"`
	StartWallNS int64            `json:"start_wall_ns"`
	Joiner      int              `json:"joiner"`
	Complete    bool             `json:"complete"`
	TotalNS     int64            `json:"total_ns"`
	Stages      map[string]int64 `json:"stages_ns"`
}

// snap renders the span.
func (sp *Span) snap() SpanSnap {
	s := SpanSnap{
		ReqID:       sp.ReqID,
		Seq:         sp.Seq,
		Key:         sp.Key,
		TS:          sp.TS,
		StartWallNS: sp.StartWallNS,
		Joiner:      sp.Joiner(),
		Complete:    !sp.Dropped(),
		Stages:      make(map[string]int64, NumStages),
	}
	for i := Stage(0); i < NumStages; i++ {
		d := sp.stages[i].Load()
		s.Stages[stageNames[i]] = d
		s.TotalNS += d
	}
	return s
}

// Tracer owns sampling and span lifecycle: a deterministic 1-in-N sampler,
// the active-span map (keyed by engine-global base sequence, how joiners
// find their span), and a bounded ring of completed spans for /tracez.
type Tracer struct {
	sampleN uint64 // 0 disables sampling
	counter atomic.Uint64
	active  sync.Map // engine seq -> *Span
	nActive atomic.Int64

	mu        sync.Mutex
	ring      []*Span // completed, oldest overwritten first
	next      int
	completed uint64
	dropped   uint64
}

// NewTracer builds a tracer sampling every sampleN-th request into a ring
// of ringSize completed spans. sampleN <= 0 disables sampling entirely
// (every call becomes a cheap branch); ringSize <= 0 defaults to 256.
func NewTracer(sampleN, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	t := &Tracer{ring: make([]*Span, 0, ringSize)}
	if sampleN > 0 {
		t.sampleN = uint64(sampleN)
	}
	return t
}

// Enabled reports whether any request can be sampled. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.sampleN > 0 }

// SampleN returns the current 1-in-N rate (0 when disabled).
func (t *Tracer) SampleN() int {
	if t == nil {
		return 0
	}
	return int(t.sampleN)
}

// Sample decides whether the next admitted request is traced: true for
// every sampleN-th call, from a shared atomic counter — deterministic, no
// PRNG. With sampling off it is one branch.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	n := t.sampleN
	if n == 0 {
		return false
	}
	return t.counter.Add(1)%n == 1%n
}

// Completed returns the number of retired spans (no ring copy).
func (t *Tracer) Completed() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// Dropped returns the number of retired spans that were abandoned.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Active returns the number of in-flight sampled spans.
func (t *Tracer) Active() int64 {
	if t == nil {
		return 0
	}
	return t.nActive.Load()
}

// Register publishes a span under its engine-global sequence so joiners
// can find it. Call after Span.Seq is set.
func (t *Tracer) Register(sp *Span) {
	sp.registered = true
	t.active.Store(sp.Seq, sp)
	t.nActive.Add(1)
}

// Lookup returns the active span for a base sequence, or nil. With
// sampling off this is one branch; with sampling on but the request
// unsampled, one map probe.
func (t *Tracer) Lookup(seq uint64) *Span {
	if !t.Enabled() {
		return nil
	}
	v, ok := t.active.Load(seq)
	if !ok {
		return nil
	}
	return v.(*Span)
}

// Complete retires a span into the bounded ring (oldest evicted first).
func (t *Tracer) Complete(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	if sp.registered {
		t.active.Delete(sp.Seq)
		t.nActive.Add(-1)
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next = (t.next + 1) % len(t.ring)
	}
	t.completed++
	if sp.Dropped() {
		t.dropped++
	}
	t.mu.Unlock()
}

// Abandon retires a span whose result will never reach the wire.
func (t *Tracer) Abandon(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.dropped.Store(true)
	t.Complete(sp)
}

// Snapshot returns completed spans oldest-first.
func (t *Tracer) Snapshot() []SpanSnap {
	spans, _, _ := t.snapshot()
	return spans
}

// snapshot returns the completed spans oldest-first with the completed
// and dropped counts, all read in one critical section.
func (t *Tracer) snapshot() (out []SpanSnap, completed, dropped uint64) {
	if t == nil {
		return nil, 0, 0
	}
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.ring))
	if len(t.ring) == cap(t.ring) {
		spans = append(spans, t.ring[t.next:]...)
		spans = append(spans, t.ring[:t.next]...)
	} else {
		spans = append(spans, t.ring...)
	}
	completed, dropped = t.completed, t.dropped
	t.mu.Unlock()
	out = make([]SpanSnap, len(spans))
	for i, sp := range spans {
		out[i] = sp.snap()
	}
	return out, completed, dropped
}

// TracezDoc is the /tracez JSON document.
type TracezDoc struct {
	SampleEvery int        `json:"sample_every"`
	ActiveSpans int64      `json:"active_spans"`
	Completed   uint64     `json:"completed_spans"`
	Dropped     uint64     `json:"dropped_spans"`
	Spans       []SpanSnap `json:"spans"`
}

// Doc assembles the /tracez document. Its spans and counts come from one
// critical section, so it never counts a span its ring does not yet hold;
// the active count is read after them, since a span leaves the active set
// before it enters the ring.
func (t *Tracer) Doc() TracezDoc {
	spans, completed, dropped := t.snapshot()
	d := TracezDoc{SampleEvery: t.SampleN(), ActiveSpans: t.Active(), Completed: completed, Dropped: dropped, Spans: spans}
	if d.Spans == nil {
		d.Spans = []SpanSnap{}
	}
	return d
}

// WriteTracez renders the /tracez JSON document.
func (t *Tracer) WriteTracez(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Doc())
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Times are
// in microseconds, per the format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders completed spans in the Chrome trace-event
// format (load into speedscope, Perfetto, or chrome://tracing). Each
// request is one track (tid = request id); stages are laid out
// back-to-back in pipeline order from the span's admission time.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	type doc struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	d := doc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, s := range t.Snapshot() {
		off := float64(s.StartWallNS) / 1e3
		for i := Stage(0); i < NumStages; i++ {
			dur := float64(s.Stages[stageNames[i]]) / 1e3
			d.TraceEvents = append(d.TraceEvents, chromeEvent{
				Name: stageNames[i], Cat: "request", Ph: "X",
				PID: 1, TID: s.ReqID, TS: off, Dur: dur,
				Args: map[string]any{
					"seq": s.Seq, "key": s.Key, "joiner": s.Joiner, "complete": s.Complete,
				},
			})
			off += dur
		}
	}
	return json.NewEncoder(w).Encode(d)
}

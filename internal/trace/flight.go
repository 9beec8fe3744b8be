package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/faultfs"
)

// Component indexes one flight-recorder ring. Each control-plane subsystem
// gets its own fixed ring so a chatty component (watermarks) cannot wash
// out a rare one (evictions).
type Component int

// Flight-recorder components.
const (
	CompWatermark Component = iota
	CompEpoch
	CompAdmission
	CompMemory
	CompSession
	CompStall
	CompWAL
	CompBreaker
	CompSLO
	CompRepl
	CompProf
	numComponents
)

var componentNames = [numComponents]string{
	"watermark", "epoch", "admission", "memory",
	"session", "stall", "wal", "breaker", "slo", "repl", "prof",
}

// String returns the component's export name.
func (c Component) String() string { return componentNames[c] }

// EventKind tags one flight-recorder event.
type EventKind int

// Flight-recorder event kinds.
const (
	EvWatermarkAdvance EventKind = iota + 1 // a=new watermark, b=tuples seen
	EvEpoch                                 // a=epoch index, b=watermark lag (ns)
	EvAdmissionShed                         // a=total sheds
	EvAdmissionReject                       // a=total rejects
	EvDeadlineNack                          // a=request seq, b=queue age (ns)
	EvMemLevel                              // a=new level, b=buffered probes
	EvSlowEviction                          // a=total evictions
	EvStallDetected                         // a=stalled joiners, b=max stall (ns)
	EvStallCleared                          // a=stalled joiners (now 0)
	EvWALRotate                             // a=segment bytes at rotation
	EvWALSalvage                            // a=frames cut by sanitize
	EvWALRecovered                          // a=frames recovered, b=frames skipped
	EvWALError                              // a=consecutive errors
	EvBreakerOpen                           // a=consecutive failures
	EvBreakerHalfOpen                       //
	EvBreakerClosed                         //
	EvSLOUnhealthy                          // a=breached-dimension bitmask, b=epoch index
	EvSLORecovered                          // a=unhealthy duration (ns), b=epoch index
	EvReplConnect                           // a=peer slot position, b=local commit
	EvReplCaughtUp                          // a=applied slot, b=commit slot
	EvReplLagExceeded                       // a=lag bytes, b=configured max
	EvReplPromote                           // a=new epoch, b=applied slot at promotion
	EvReplFenced                            // a=fencing epoch, b=own (superseded) epoch
	EvProfCapture                           // a=profile ring seq, b=profile bytes
	numEventKinds
)

var eventKindNames = map[EventKind]string{
	EvWatermarkAdvance: "watermark_advance",
	EvEpoch:            "epoch",
	EvAdmissionShed:    "admission_shed",
	EvAdmissionReject:  "admission_reject",
	EvDeadlineNack:     "deadline_nack",
	EvMemLevel:         "mem_level",
	EvSlowEviction:     "slow_eviction",
	EvStallDetected:    "stall_detected",
	EvStallCleared:     "stall_cleared",
	EvWALRotate:        "wal_rotate",
	EvWALSalvage:       "wal_salvage",
	EvWALRecovered:     "wal_recovered",
	EvWALError:         "wal_error",
	EvBreakerOpen:      "breaker_open",
	EvBreakerHalfOpen:  "breaker_half_open",
	EvBreakerClosed:    "breaker_closed",
	EvSLOUnhealthy:     "slo_unhealthy",
	EvSLORecovered:     "slo_recovered",
	EvReplConnect:      "repl_connect",
	EvReplCaughtUp:     "repl_caught_up",
	EvReplLagExceeded:  "repl_lag_exceeded",
	EvReplPromote:      "repl_promote",
	EvReplFenced:       "repl_fenced",
	EvProfCapture:      "prof_capture",
}

// String returns the kind's export name.
func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// eventSlot is one ring entry, all-atomic so writers never lock. The
// publish protocol is: claim an index, invalidate (seq=0), write payload,
// publish seq last. Readers skip seq==0 slots; a reader racing a wrap can
// observe a slot whose payload is mid-rewrite under a stale seq — a rare
// single-event glitch at ring-wrap, acceptable for a forensic buffer and
// far cheaper than seqlock retries on every record.
type eventSlot struct {
	seq  atomic.Uint64 // global order, 0 = empty/being written
	wall atomic.Int64  // UnixNano
	kind atomic.Int64
	a    atomic.Uint64
	b    atomic.Uint64
}

// eventRing is one component's fixed ring.
type eventRing struct {
	next  atomic.Uint64
	slots []eventSlot
}

// Event is one recorded flight event, decoded for export.
type Event struct {
	Seq       uint64 `json:"seq"`
	WallNS    int64  `json:"wall_ns"`
	Component string `json:"component"`
	Kind      string `json:"kind"`
	A         uint64 `json:"a"`
	B         uint64 `json:"b"`
}

// Flight is the always-on flight recorder: per-component lock-free event
// rings stitched together by a global sequence. Recording is a few atomic
// stores; a nil *Flight is a valid no-op recorder so call sites need no
// guards.
type Flight struct {
	gseq  atomic.Uint64
	rings [numComponents]eventRing

	autoPath string
	lastDump atomic.Int64 // UnixNano of last auto-dump, rate limiter
	dumpMu   sync.Mutex   // serializes file writes
	dumps    atomic.Uint64
}

// NewFlight builds a recorder with ringSize slots per component (default
// 512 when <= 0). autoDumpPath, when non-empty, is where incident dumps
// land (see AutoDump).
func NewFlight(ringSize int, autoDumpPath string) *Flight {
	if ringSize <= 0 {
		ringSize = 512
	}
	f := &Flight{autoPath: autoDumpPath}
	for i := range f.rings {
		f.rings[i].slots = make([]eventSlot, ringSize)
	}
	return f
}

// Record appends an event to a component's ring. Safe from any goroutine,
// no locks; nil receiver is a no-op.
func (f *Flight) Record(c Component, k EventKind, a, b uint64) {
	if f == nil {
		return
	}
	gs := f.gseq.Add(1)
	r := &f.rings[c]
	slot := &r.slots[(r.next.Add(1)-1)%uint64(len(r.slots))]
	slot.seq.Store(0) // invalidate while the payload is torn
	slot.wall.Store(time.Now().UnixNano())
	slot.kind.Store(int64(k))
	slot.a.Store(a)
	slot.b.Store(b)
	slot.seq.Store(gs) // publish
}

// Seq returns the number of events recorded so far.
func (f *Flight) Seq() uint64 {
	if f == nil {
		return 0
	}
	return f.gseq.Load()
}

// Dumps returns how many incident dumps have been written.
func (f *Flight) Dumps() uint64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}

// Snapshot collects every published event across all rings, sorted by
// global sequence (the interleaved control-plane timeline).
func (f *Flight) Snapshot() []Event {
	if f == nil {
		return nil
	}
	var out []Event
	for c := Component(0); c < numComponents; c++ {
		for i := range f.rings[c].slots {
			slot := &f.rings[c].slots[i]
			seq := slot.seq.Load()
			if seq == 0 {
				continue
			}
			out = append(out, Event{
				Seq:       seq,
				WallNS:    slot.wall.Load(),
				Component: c.String(),
				Kind:      EventKind(slot.kind.Load()).String(),
				A:         slot.a.Load(),
				B:         slot.b.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FlightDoc is the /debug/flightrecorder JSON document.
type FlightDoc struct {
	Reason     string  `json:"reason,omitempty"`
	DumpedAtNS int64   `json:"dumped_at_ns"`
	TotalSeq   uint64  `json:"total_seq"`
	Dumps      uint64  `json:"dumps"`
	Events     []Event `json:"events"`
}

// WriteJSON renders the full event timeline.
func (f *Flight) WriteJSON(w io.Writer, reason string) error {
	d := FlightDoc{
		Reason:     reason,
		DumpedAtNS: time.Now().UnixNano(),
		TotalSeq:   f.Seq(),
		Dumps:      f.Dumps(),
		Events:     f.Snapshot(),
	}
	if d.Events == nil {
		d.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpToFile writes the timeline to path via temp-file + rename, so a
// concurrent reader never sees a torn dump.
func (f *Flight) DumpToFile(path, reason string) error {
	if f == nil || path == "" {
		return nil
	}
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, reason); err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(faultfs.OS{}, path, buf.Bytes()); err != nil {
		return err
	}
	f.dumps.Add(1)
	return nil
}

// AutoDump writes an incident dump to the configured path, asynchronously
// and rate-limited to one per second — incident paths (eviction, stall,
// memory pressure) call it inline and must not block. No-op when no dump
// path is configured.
func (f *Flight) AutoDump(reason string) {
	if f == nil || f.autoPath == "" {
		return
	}
	now := time.Now().UnixNano()
	last := f.lastDump.Load()
	if now-last < int64(time.Second) || !f.lastDump.CompareAndSwap(last, now) {
		return
	}
	go func() { _ = f.DumpToFile(f.autoPath, reason) }()
}

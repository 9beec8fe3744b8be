package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/metrics"
	"oij/internal/tuple"
)

// NullSink discards results (pure-throughput benches).
type NullSink struct{}

// Emit implements Sink.
func (NullSink) Emit(int, tuple.Result) {}

// CountSink counts results and checksums aggregates, so throughput runs
// can sanity-check output volume without retaining it.
type CountSink struct {
	n   atomic.Int64
	sum atomic.Int64 // fixed-point (×1024) sum of aggregates, ±LSB races aside
}

// Emit implements Sink.
func (s *CountSink) Emit(_ int, r tuple.Result) {
	s.n.Add(1)
	s.sum.Add(int64(r.Agg * 1024))
}

// Count returns the number of results seen.
func (s *CountSink) Count() int64 { return s.n.Load() }

// CollectSink retains every result for correctness tests. Safe for
// concurrent emitters.
type CollectSink struct {
	mu      sync.Mutex
	results []tuple.Result
}

// Emit implements Sink.
func (s *CollectSink) Emit(_ int, r tuple.Result) {
	s.mu.Lock()
	s.results = append(s.results, r)
	s.mu.Unlock()
}

// Results returns the collected results (call after Drain).
func (s *CollectSink) Results() []tuple.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results
}

// ByBaseSeq indexes the collected results by base sequence number.
func (s *CollectSink) ByBaseSeq() map[uint64]tuple.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[uint64]tuple.Result, len(s.results))
	for _, r := range s.results {
		m[r.BaseSeq] = r
	}
	return m
}

// LatencySink records per-result latency (now − base-tuple arrival) into
// per-joiner recorders, keeping the hot path lock-free. Results without an
// arrival stamp are counted but not timed.
//
// The base tuple's wall-clock arrival is not carried inside Result (results
// may be emitted long after and by another joiner than the one that queued
// the base tuple), so the engine times the result itself: Core.Emit calls
// Record with the latency of every base that carries an arrival stamp. To
// keep the Sink interface minimal, plain Emit just counts.
type LatencySink struct {
	recs []*metrics.LatencyRecorder
	n    atomic.Int64
}

// NewLatencySink sizes per-joiner recorders that retain every sample
// (bounded replays only — see NewLatencySinkCapped for servers).
func NewLatencySink(joiners, capacity int) *LatencySink {
	s := &LatencySink{recs: make([]*metrics.LatencyRecorder, joiners)}
	for i := range s.recs {
		s.recs[i] = metrics.NewLatencyRecorder(capacity)
	}
	return s
}

// NewLatencySinkCapped bounds each per-joiner recorder at max samples via
// deterministic reservoir sampling (each shard seeded from seed), so the
// sink is safe on unbounded-duration serving paths.
func NewLatencySinkCapped(joiners, max int, seed uint64) *LatencySink {
	s := &LatencySink{recs: make([]*metrics.LatencyRecorder, joiners)}
	for i := range s.recs {
		s.recs[i] = metrics.NewReservoirRecorder(max, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return s
}

// Emit implements Sink (counts only).
func (s *LatencySink) Emit(_ int, _ tuple.Result) { s.n.Add(1) }

// Record logs one latency observation for a joiner.
func (s *LatencySink) Record(joiner int, d time.Duration) {
	s.recs[joiner].Record(d)
}

// CDF merges per-joiner recorders (call after Drain).
func (s *LatencySink) CDF() metrics.CDF { return metrics.MergeCDF(s.recs...) }

// Count returns the number of results seen.
func (s *LatencySink) Count() int64 { return s.n.Load() }

// LatencyRecorder is implemented by sinks that accept latency samples;
// Core asserts the sink against it once and calls Record per result when
// the base tuple carries an arrival stamp.
type LatencyRecorder interface {
	Record(joiner int, d time.Duration)
}

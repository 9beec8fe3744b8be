package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/obs"
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
// one obs.Histogram per joiner, so the hot path is a lock-free bucket add
// in memory fixed at construction. Results without an arrival stamp are
// counted but not timed.
//
// The base tuple's wall-clock arrival is not carried inside Result (results
// may be emitted long after and by another joiner than the one that queued
// the base tuple), so the engine times the result itself: Core.Emit calls
// Record with the latency of every base that carries an arrival stamp. To
// keep the Sink interface minimal, plain Emit just counts.
type LatencySink struct {
	hists []obs.Histogram
	n     atomic.Int64
}

// NewLatencySink builds one histogram shard per joiner.
func NewLatencySink(joiners int) *LatencySink {
	return &LatencySink{hists: make([]obs.Histogram, joiners)}
}

// Emit implements Sink (counts only).
func (s *LatencySink) Emit(_ int, _ tuple.Result) { s.n.Add(1) }

// Record logs one latency observation for a joiner (that joiner's
// goroutine only: each shard has a single writer).
func (s *LatencySink) Record(joiner int, d time.Duration) {
	s.hists[joiner].Observe(int64(d))
}

// Snapshot merges the per-joiner shards, in ns. Safe while joiners record.
func (s *LatencySink) Snapshot() *obs.HistSnapshot {
	snap := &obs.HistSnapshot{}
	for i := range s.hists {
		snap.Merge(&s.hists[i])
	}
	return snap
}

// Count returns the number of results seen.
func (s *LatencySink) Count() int64 { return s.n.Load() }

// LatencyRecorder is implemented by sinks that accept latency samples;
// Core asserts the sink against it once and calls Record per result when
// the base tuple carries an arrival stamp.
type LatencyRecorder interface {
	Record(joiner int, d time.Duration)
}

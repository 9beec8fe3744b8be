// Log-bucketed streaming histogram (HDR-style): fixed allocation, bounded
// relative error, lock-free single-writer recording with concurrent
// snapshot reads. It is the one latency distribution in the repository:
// oijd, the paper harness and the scenario simulator all read the paper's
// latency quantiles (§III-B) from it.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Bucket layout: values below histSub are exact (one bucket per value);
// above that, each power of two is split into histSub sub-buckets, so the
// relative bucket width — and therefore the worst-case quantile error — is
// 1/histSub ≈ 3%. The layout covers the full non-negative int64 range in
// histBuckets fixed slots (no resizing, no allocation after construction).
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// bucketIndex maps a non-negative value to its bucket (negatives clamp to
// zero: latency underflow from clock steps should not corrupt the layout).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1 // 2^e <= u < 2^(e+1), e >= histSubBits
	sub := (u >> (e - histSubBits)) & (histSub - 1)
	return int(e-histSubBits+1)*histSub + int(sub)
}

// bucketLower returns the smallest value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := uint(i/histSub) + histSubBits - 1
	sub := uint64(i % histSub)
	return int64(1<<e | sub<<(e-histSubBits))
}

// bucketWidth returns the width of bucket i (the maximum error of reporting
// a bucket by its lower bound).
func bucketWidth(i int) int64 {
	if i+1 < histBuckets {
		return bucketLower(i+1) - bucketLower(i)
	}
	return bucketLower(i) >> histSubBits
}

// Histogram is a fixed-size streaming histogram. Exactly one goroutine may
// call Observe (single-writer-per-shard, the same SWMR discipline as the
// time-travel index); any goroutine may call Snapshot concurrently. All
// state is atomics, so recording never blocks and snapshots never stop the
// writer.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64 // single-writer: load+store without CAS
}

// Observe records one value. Single writer only.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if v > h.max.Load() {
		h.max.Store(v)
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot copies the histogram state without stopping the writer. The
// copy is per-bucket atomic: a concurrent Observe lands in either the
// snapshot or the next one, never half-way.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	s.Merge(h)
	return s
}

// HistSnapshot is a point-in-time merged view of one or more histograms;
// build one with Histogram.Snapshot or merge shards into a zero value.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	N      int64
	Sum    int64
	Max    int64
}

// Merge folds a live histogram shard into the snapshot.
func (s *HistSnapshot) Merge(h *Histogram) {
	var n uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] += c
		n += c
	}
	// Derive N from the buckets actually read so quantile ranks are
	// consistent with Counts even mid-Observe.
	s.N += int64(n)
	s.Sum += h.sum.Load()
	if m := h.max.Load(); m > s.Max {
		s.Max = m
	}
}

// Sub returns the samples recorded between prev and s — both snapshots of
// the same histograms, prev the earlier — so interval quantiles come from
// bucket-count deltas. Max stays s.Max (an upper bound of the interval's
// maximum: the buckets do not record when a maximum was reached).
func (s *HistSnapshot) Sub(prev *HistSnapshot) *HistSnapshot {
	d := &HistSnapshot{N: s.N - prev.N, Sum: s.Sum - prev.Sum, Max: s.Max}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Quantile returns the nearest-rank q-quantile as the lower bound of the
// bucket holding that rank — within one bucket width (≈3% relative) of the
// exact sample quantile.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.N == 0 {
		return 0
	}
	rank := int64(q*float64(s.N) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.N {
		rank = s.N
	}
	var cum int64
	for i := range s.Counts {
		cum += int64(s.Counts[i])
		if cum >= rank {
			return bucketLower(i)
		}
	}
	return s.Max
}

// Mean returns the exact mean of recorded values (the sum is tracked
// exactly, not from bucket bounds).
func (s *HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// ErrorBoundAt returns the maximum absolute error of Quantile results near
// value v: the width of v's bucket.
func (s *HistSnapshot) ErrorBoundAt(v int64) int64 { return bucketWidth(bucketIndex(v)) }

// Package metrics implements the measurements the paper reports: throughput
// (§III-B), the lookup/match/other time breakdown (Fig. 6), effectiveness
// (Eq. 1), unbalancedness (Eq. 2), and the per-joiner utilization trace
// behind Fig. 14. Latency quantiles come from obs.Histogram.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Throughput converts a tuple count and elapsed duration to tuples/second.
func Throughput(tuples int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(tuples) / elapsed.Seconds()
}

// Effectiveness is the paper's Equation (1): the mean, over base tuples, of
// the fraction of visited buffer entries that were actually inside the
// window. Engines accumulate (matched, visited) pairs per join; this helper
// folds the per-join ratios.
//
// State is held in atomics under the single-writer discipline: only the
// owning joiner calls Observe, so updates are plain load/store (no CAS on
// the hot path), while any goroutine may call Value concurrently — the
// live statusz endpoint snapshots accumulators mid-run. Writers publish
// joins before ratioBits and readers load ratioBits before joins, so a
// snapshot's count covers at least every ratio in its sum; each ratio is
// at most 1, so a snapshot never exceeds 1.
type Effectiveness struct {
	ratioBits atomic.Uint64 // float64 bits of the summed per-join ratios
	joins     atomic.Int64
}

// Observe records one join operation that visited `visited` buffered tuples
// of which `matched` were in-window. Joins that visited nothing count as
// fully effective (nothing useless was read). Single writer only.
func (e *Effectiveness) Observe(matched, visited int64) {
	r := 1.0
	if visited != 0 {
		r = float64(matched) / float64(visited)
	}
	e.joins.Add(1)
	e.addRatio(r)
}

func (e *Effectiveness) addRatio(r float64) {
	e.ratioBits.Store(math.Float64bits(math.Float64frombits(e.ratioBits.Load()) + r))
}

// Merge folds another accumulator in (per-joiner accumulators are merged at
// the end of a run, or live for statusz).
func (e *Effectiveness) Merge(o *Effectiveness) {
	ratio := math.Float64frombits(o.ratioBits.Load())
	e.joins.Add(o.joins.Load())
	e.addRatio(ratio)
}

// Value returns the average effectiveness in [0, 1], or 1 if no joins ran.
// Safe to call while another goroutine is Observing; the join count may
// then be one observation ahead of the ratio sum, never behind it.
func (e *Effectiveness) Value() float64 {
	ratio := math.Float64frombits(e.ratioBits.Load())
	joins := e.joins.Load()
	if joins == 0 {
		return 1
	}
	return ratio / float64(joins)
}

// Unbalancedness is the paper's Equation (2): the dispersion of per-joiner
// workloads, normalized by joiner count and mean workload. As printed in
// the paper the summand is (W_i - µ), which telescopes to zero; the text
// defines it as the standard deviation of workloads, so we compute
// stddev(W) / µ (the coefficient of variation), which reproduces the
// figure's behaviour: 0 when perfectly balanced, large when few joiners
// carry most tuples.
func Unbalancedness(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	for _, w := range loads {
		sum += w
	}
	mu := sum / float64(len(loads))
	if mu == 0 {
		return 0
	}
	var ss float64
	for _, w := range loads {
		d := w - mu
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(loads))) / mu
}

// Summary describes a small set of repeated measurements (e.g. the
// per-cell throughput samples of a benchmark sweep) by its nearest-rank
// quartiles — the statistics the perf regression gate compares. With very
// few repeats Q1 and Q3 degrade gracefully toward the sample extremes and
// the interquartile range covers the whole observed spread.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes the five-number summary of samples. A zero Summary is
// returned for an empty input.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := func(q float64) float64 {
		r := int(math.Ceil(q * float64(len(sorted))))
		if r < 1 {
			r = 1
		}
		if r > len(sorted) {
			r = len(sorted)
		}
		return sorted[r-1]
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     rank(0.25),
		Median: rank(0.5),
		Q3:     rank(0.75),
		Max:    sorted[len(sorted)-1],
	}
}

// Scale returns the summary with every statistic multiplied by f —
// used to normalize a baseline recorded on different hardware by a
// calibration ratio.
func (s Summary) Scale(f float64) Summary {
	s.Min *= f
	s.Q1 *= f
	s.Median *= f
	s.Q3 *= f
	s.Max *= f
	return s
}

// IQROverlaps reports whether the interquartile ranges [Q1, Q3] of the two
// summaries intersect. Overlapping IQRs mean the two sample sets are
// indistinguishable at benchmark-noise resolution, which the regression
// gate treats as "no regression" regardless of the median delta.
func (s Summary) IQROverlaps(o Summary) bool {
	return s.Q1 <= o.Q3 && o.Q1 <= s.Q3
}

// Breakdown accumulates the paper's Fig. 6 time categories for one joiner.
// Lookup is time spent visiting buffered tuples to find the in-window set,
// Match is time spent folding in-window tuples into the aggregate, and
// Other is everything else the joiner did while busy (queue handling,
// insertion, eviction, result writing).
type Breakdown struct {
	Lookup time.Duration
	Match  time.Duration
	Other  time.Duration
}

// Add folds another breakdown in.
func (b *Breakdown) Add(o Breakdown) {
	b.Lookup += o.Lookup
	b.Match += o.Match
	b.Other += o.Other
}

// Total returns the sum of all categories.
func (b Breakdown) Total() time.Duration { return b.Lookup + b.Match + b.Other }

// Fractions returns each category as a share of the total.
func (b Breakdown) Fractions() (lookup, match, other float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return float64(b.Lookup) / float64(t), float64(b.Match) / float64(t), float64(b.Other) / float64(t)
}

// String implements fmt.Stringer.
func (b Breakdown) String() string {
	l, m, o := b.Fractions()
	return fmt.Sprintf("lookup=%.1f%% match=%.1f%% other=%.1f%%", l*100, m*100, o*100)
}

// Utilization samples per-joiner busy time over fixed epochs, reproducing
// the CPU-utilization-over-time trace of Fig. 14 in software. Joiners call
// AddBusy with the time they spent processing during the current epoch; the
// harness calls Snapshot at epoch boundaries.
type Utilization struct {
	epoch   time.Duration
	busy    []time.Duration
	history [][]float64
}

// NewUtilization tracks n joiners with the given epoch length.
func NewUtilization(n int, epoch time.Duration) *Utilization {
	return &Utilization{epoch: epoch, busy: make([]time.Duration, n)}
}

// AddBusy accounts busy-time d to joiner i during the current epoch. Only
// the harness goroutine mutates the tracker, folding per-joiner counters it
// drains from the engine, so no locking is needed.
func (u *Utilization) AddBusy(i int, d time.Duration) { u.busy[i] += d }

// Snapshot closes the current epoch: it appends each joiner's utilization
// (busy/epoch, capped at 1) to the history and zeroes the counters.
func (u *Utilization) Snapshot() []float64 {
	row := make([]float64, len(u.busy))
	for i, b := range u.busy {
		var f float64
		if u.epoch > 0 {
			f = float64(b) / float64(u.epoch)
		}
		if f > 1 {
			f = 1
		}
		row[i] = f
		u.busy[i] = 0
	}
	u.history = append(u.history, row)
	return row
}

// History returns one row per epoch, one column per joiner.
func (u *Utilization) History() [][]float64 { return u.history }

// Imbalance returns the mean over epochs of the cross-joiner
// unbalancedness of utilization within that epoch — the primary
// quantitative reading of Fig. 14: under a rotating hot set, a static key
// partition keeps a few joiners saturated while others idle (high
// imbalance), whereas the dynamic schedule spreads each epoch's load
// (low imbalance). Epochs with no recorded work are skipped.
func (u *Utilization) Imbalance() float64 {
	var sum float64
	n := 0
	for _, row := range u.history {
		var total float64
		for _, v := range row {
			total += v
		}
		if total == 0 {
			continue
		}
		sum += Unbalancedness(row)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Smoothness returns the mean over joiners of the standard deviation of
// their *share* of each epoch's total utilization across epochs — the
// temporal reading of Fig. 14 ("smoother CPU utilization variation"):
// lower is smoother. Shares (rather than raw busy fractions) make the
// metric insensitive to how fast the engine is in absolute terms.
func (u *Utilization) Smoothness() float64 {
	if len(u.history) == 0 || len(u.busy) == 0 {
		return 0
	}
	nJ := len(u.busy)
	var shares [][]float64
	for _, row := range u.history {
		var total float64
		for _, v := range row {
			total += v
		}
		if total == 0 {
			continue
		}
		s := make([]float64, nJ)
		for j, v := range row {
			s[j] = v / total
		}
		shares = append(shares, s)
	}
	if len(shares) == 0 {
		return 0
	}
	var totalDev float64
	for j := 0; j < nJ; j++ {
		var sum float64
		for _, s := range shares {
			sum += s[j]
		}
		mu := sum / float64(len(shares))
		var ss float64
		for _, s := range shares {
			d := s[j] - mu
			ss += d * d
		}
		totalDev += math.Sqrt(ss / float64(len(shares)))
	}
	return totalDev / float64(nJ)
}

// Collector turns a family table into a fixed series vector for the
// timeline: counters become per-second rates, gauges pass through,
// per-joiner families contribute their hottest shard, and summaries yield
// interval quantiles — the p50/p99 of only the samples recorded since the
// previous tick, computed from bucket-count deltas, so a latency
// regression shows up in the next slot instead of being averaged into a
// lifetime distribution.
package obs

import (
	"time"
)

// Series-name suffixes the collector derives from family kinds.
const (
	SuffixRate = ":rate" // counters (and histogram sample counts): per-second delta
	SuffixMax  = ":max"  // per-joiner gauge families: hottest shard
	SuffixP50  = ":p50"  // histograms: interval median, in the family's output unit
	SuffixP99  = ":p99"  // histograms: interval p99, in the family's output unit
)

// collectorSource reads one series value per tick from a snapshot.
type collectorSource[S any] func(s *S, elapsed time.Duration) float64

// Collector samples a family table into a stable, ordered series vector.
// Collect must be called from a single goroutine (the epoch sampler):
// rate and interval-quantile state is writer-private.
type Collector[S any] struct {
	names   []string
	sources []collectorSource[S]
}

// NewCollector derives the series of fams, in table order. Info families
// carry no value and yield no series.
func NewCollector[S any](fams []Family[S]) *Collector[S] {
	c := &Collector[S]{}
	add := func(name string, src collectorSource[S]) {
		c.names = append(c.names, name)
		c.sources = append(c.sources, src)
	}
	for _, f := range fams {
		switch {
		case f.Kind == KindInfo:
		case f.Hist != nil:
			// Interval quantiles share one delta snapshot per tick: the
			// first of the three sources computes it, the others read it.
			prev := &HistSnapshot{}
			var delta *HistSnapshot
			add(f.Name+SuffixP50, func(s *S, _ time.Duration) float64 {
				cur := f.Hist(s)
				delta = cur.Sub(prev)
				prev = cur
				return float64(delta.Quantile(0.5)) / nsPerSecond
			})
			add(f.Name+SuffixP99, func(*S, time.Duration) float64 {
				return float64(delta.Quantile(0.99)) / nsPerSecond
			})
			add(f.Name+SuffixRate, func(_ *S, elapsed time.Duration) float64 {
				return rate(float64(delta.N), elapsed)
			})
		case f.Kind == KindCounter:
			var prev float64
			add(f.Name+SuffixRate, func(s *S, elapsed time.Duration) float64 {
				cur := f.total(s)
				d := cur - prev
				prev = cur
				return rate(d, elapsed)
			})
		case f.Shard != nil:
			add(f.Name+SuffixMax, func(s *S, _ time.Duration) float64 {
				var m float64
				for i := 0; ; i++ {
					v, ok := f.Shard(s, i)
					if !ok {
						return m
					}
					if i == 0 || v > m {
						m = v
					}
				}
			})
		default:
			add(f.Name, func(s *S, _ time.Duration) float64 { return f.Value(s) })
		}
	}
	return c
}

// total is a scalar family's value, or the sum of a per-joiner family's.
func (f *Family[S]) total(s *S) float64 {
	if f.Shard == nil {
		return f.Value(s)
	}
	var n float64
	for i := 0; ; i++ {
		v, ok := f.Shard(s, i)
		if !ok {
			return n
		}
		n += v
	}
}

// Names returns the collected series names, aligned with Collect results.
func (c *Collector[S]) Names() []string { return append([]string(nil), c.names...) }

// Collect samples every series from the snapshot s. elapsed is the wall
// time since the previous Collect (rates divide by it); the returned
// slice is reused across calls — the timeline copies what it keeps.
func (c *Collector[S]) Collect(s *S, elapsed time.Duration, out []float64) []float64 {
	if cap(out) < len(c.sources) {
		out = make([]float64, len(c.sources))
	}
	out = out[:len(c.sources)]
	for i, src := range c.sources {
		out[i] = src(s, elapsed)
	}
	return out
}

func rate(delta float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	r := delta / elapsed.Seconds()
	if r < 0 {
		return 0 // counter reset; clamp, don't plot negative rates
	}
	return r
}

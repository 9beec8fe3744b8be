// Collector turns a Registry into a fixed series vector for the timeline:
// counters become per-second rates, gauges pass through, multi-shard
// families contribute their hottest shard, and histograms yield
// interval quantiles — the p50/p99 of only the samples recorded since the
// previous tick, computed from bucket-count deltas, so a latency
// regression shows up in the next slot instead of being averaged into a
// lifetime distribution.
package obs

import (
	"time"
)

// Series-name suffixes the collector derives from instrument kinds.
const (
	SuffixRate = ":rate" // counters (and histogram sample counts): per-second delta
	SuffixMax  = ":max"  // multi-shard gauge families: hottest shard
	SuffixP50  = ":p50"  // histograms: interval median, in the family's output unit
	SuffixP99  = ":p99"  // histograms: interval p99, in the family's output unit
)

// collectorSource reads one series value per tick.
type collectorSource func(elapsed time.Duration) float64

// Collector samples every instrument registered at construction time into
// a stable, ordered series vector. Collect must be called from a single
// goroutine (the epoch sampler): rate and interval-quantile state is
// writer-private.
type Collector struct {
	names   []string
	sources []collectorSource
}

// NewCollector snapshots the registry's instrument set. Instruments
// registered afterwards are not collected — the server registers
// everything before building its collector.
func NewCollector(r *Registry) *Collector {
	r.mu.Lock()
	counters := append([]*CounterVec(nil), r.counters...)
	gauges := append([]*GaugeVec(nil), r.gauges...)
	gfns := append([]*gaugeFunc(nil), r.gfns...)
	gvfns := append([]*gaugeVecFunc(nil), r.gvfns...)
	hists := append([]*HistogramVec(nil), r.hists...)
	r.mu.Unlock()

	c := &Collector{}
	add := func(name string, src collectorSource) {
		c.names = append(c.names, name)
		c.sources = append(c.sources, src)
	}
	for _, v := range counters {
		v := v
		prev := v.Total()
		add(v.name+SuffixRate, func(elapsed time.Duration) float64 {
			cur := v.Total()
			d := cur - prev
			prev = cur
			return rate(float64(d), elapsed)
		})
	}
	for _, v := range gauges {
		v := v
		if len(v.shards) == 1 {
			add(v.name, func(time.Duration) float64 { return v.shards[0].Load() })
			continue
		}
		add(v.name+SuffixMax, func(time.Duration) float64 { return maxOf(v.Values()) })
	}
	for _, g := range gfns {
		g := g
		add(g.name, func(time.Duration) float64 { return g.fn() })
	}
	for _, g := range gvfns {
		g := g
		add(g.name+SuffixMax, func(time.Duration) float64 { return maxOf(g.fn()) })
	}
	for _, v := range hists {
		v := v
		// Interval quantiles share one delta snapshot per tick: the first
		// of the three sources computes it, the others read it.
		prev := &HistSnapshot{}
		var delta *HistSnapshot
		tick := func() {
			cur := v.Snapshot()
			delta = cur.Sub(prev)
			prev = cur
		}
		add(v.name+SuffixP50, func(time.Duration) float64 {
			tick()
			return float64(delta.Quantile(0.5)) / nsPerSecond
		})
		add(v.name+SuffixP99, func(time.Duration) float64 {
			return float64(delta.Quantile(0.99)) / nsPerSecond
		})
		add(v.name+SuffixRate, func(elapsed time.Duration) float64 {
			return rate(float64(delta.N), elapsed)
		})
	}
	return c
}

// Names returns the collected series names, aligned with Collect results.
func (c *Collector) Names() []string { return append([]string(nil), c.names...) }

// Collect samples every series. elapsed is the wall time since the
// previous Collect (rates divide by it); the returned slice is reused
// across calls — the timeline copies what it keeps.
func (c *Collector) Collect(elapsed time.Duration, out []float64) []float64 {
	if cap(out) < len(c.sources) {
		out = make([]float64, len(c.sources))
	}
	out = out[:len(c.sources)]
	for i, src := range c.sources {
		out[i] = src(elapsed)
	}
	return out
}

func rate(delta float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	r := delta / elapsed.Seconds()
	if r < 0 {
		return 0 // counter reset (tests swap registries); clamp, don't plot negative rates
	}
	return r
}

func maxOf(vs []float64) float64 {
	var m float64
	for i, v := range vs {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Package obs is the live observability layer: lock-free per-joiner
// instruments (padded atomic counters and gauges, streaming histograms), a
// registry that snapshots them without stopping joiners, and an admin HTTP
// server exposing Prometheus text metrics, a JSON statusz, and pprof.
//
// The hot-path contract mirrors the engines' SWMR discipline: every
// instrument is sharded per joiner, exactly one goroutine writes a shard,
// and the scrape path merges shard snapshots — recording is a shard-local
// atomic write, never a lock, so instrumentation cannot perturb the
// throughput the paper measures.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const cacheLine = 64

// Counter is a monotonically increasing counter on its own cache line, so
// adjacent shards never false-share.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable float64 value on its own cache line.
type Gauge struct {
	bits atomic.Uint64
	_    [cacheLine - 8]byte
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// CounterVec is a named family of per-shard counters.
type CounterVec struct {
	name, help string
	shards     []Counter
}

// Shard returns shard i; only that shard's owning goroutine should write
// it, though writes are atomic so violating that only costs cache traffic.
func (v *CounterVec) Shard(i int) *Counter { return &v.shards[i] }

// Total sums all shards.
func (v *CounterVec) Total() int64 {
	var n int64
	for i := range v.shards {
		n += v.shards[i].Load()
	}
	return n
}

// Values returns the per-shard values.
func (v *CounterVec) Values() []int64 {
	out := make([]int64, len(v.shards))
	for i := range v.shards {
		out[i] = v.shards[i].Load()
	}
	return out
}

// GaugeVec is a named family of per-shard gauges.
type GaugeVec struct {
	name, help string
	shards     []Gauge
}

// Shard returns gauge i.
func (v *GaugeVec) Shard(i int) *Gauge { return &v.shards[i] }

// Values returns the per-shard values.
func (v *GaugeVec) Values() []float64 {
	out := make([]float64, len(v.shards))
	for i := range v.shards {
		out[i] = v.shards[i].Load()
	}
	return out
}

// HistogramVec is a named family of per-shard streaming histograms.
// Values are recorded in nanoseconds and rendered to Prometheus in
// seconds.
type HistogramVec struct {
	name, help string
	shards     []Histogram
}

// nsPerSecond converts recorded nanoseconds to rendered seconds.
const nsPerSecond = 1e9

// Shard returns histogram i (single writer per shard).
func (v *HistogramVec) Shard(i int) *Histogram { return &v.shards[i] }

// Snapshot merges every shard into one point-in-time view.
func (v *HistogramVec) Snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	for i := range v.shards {
		s.Merge(&v.shards[i])
	}
	return s
}

// infoMetric is the Prometheus info idiom: a constant gauge of 1 whose
// labels carry build/identity strings (git revision, Go version), so
// scrape artifacts are attributable to the exact binary that produced them.
type infoMetric struct {
	name, help string
	labels     string // pre-rendered {k="v",...} — constant, so escaped once
}

// gaugeFunc reads its value at scrape time — for state that already lives
// in engine atomics (queue depths, watermarks) and needs no second copy.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// gaugeVecFunc is the per-shard variant of gaugeFunc.
type gaugeVecFunc struct {
	name, help string
	fn         func() []float64
}

// Registry holds the instrument families of one process. Registration
// takes a lock; recording and scraping never do (scrapes read atomics).
type Registry struct {
	mu       sync.Mutex
	counters []*CounterVec
	gauges   []*GaugeVec
	gfns     []*gaugeFunc
	gvfns    []*gaugeVecFunc
	hists    []*HistogramVec
	infos    []*infoMetric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// summaryQuantiles are the summary quantiles rendered for histograms,
// ascending — the grid the paper's CDF figures read off (§III-B).
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// NewCounterVec registers a counter family with the given shard count.
func (r *Registry) NewCounterVec(name, help string, shards int) *CounterVec {
	v := &CounterVec{name: name, help: help, shards: make([]Counter, shards)}
	r.mu.Lock()
	r.counters = append(r.counters, v)
	r.mu.Unlock()
	return v
}

// NewCounter registers a single-shard counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(name, help, 1).Shard(0)
}

// NewGaugeVec registers a gauge family with the given shard count.
func (r *Registry) NewGaugeVec(name, help string, shards int) *GaugeVec {
	v := &GaugeVec{name: name, help: help, shards: make([]Gauge, shards)}
	r.mu.Lock()
	r.gauges = append(r.gauges, v)
	r.mu.Unlock()
	return v
}

// NewGaugeFunc registers a gauge evaluated at scrape time. fn must be safe
// to call from any goroutine.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	r.gfns = append(r.gfns, &gaugeFunc{name, help, fn})
	r.mu.Unlock()
}

// NewGaugeVecFunc registers a per-shard gauge family evaluated at scrape
// time; fn returns one value per shard and must be safe from any goroutine.
func (r *Registry) NewGaugeVecFunc(name, help string, fn func() []float64) {
	r.mu.Lock()
	r.gvfns = append(r.gvfns, &gaugeVecFunc{name, help, fn})
	r.mu.Unlock()
}

// NewInfo registers an info metric: a constant 1 carrying identity labels
// (the Prometheus <name>_info idiom). Label values are escaped on output.
func (r *Registry) NewInfo(name, help string, labels [][2]string) {
	r.mu.Lock()
	r.infos = append(r.infos, &infoMetric{name: name, help: help, labels: renderLabels(labels)})
	r.mu.Unlock()
}

// NewHistogramVec registers a histogram family of nanosecond values.
func (r *Registry) NewHistogramVec(name, help string, shards int) *HistogramVec {
	v := &HistogramVec{name: name, help: help, shards: make([]Histogram, shards)}
	r.mu.Lock()
	r.hists = append(r.hists, v)
	r.mu.Unlock()
	return v
}

// scrapeBuf is the reusable per-scrape working set: the output buffer and
// a histogram merge scratch, pooled so a scrape costs no steady-state
// allocations beyond what gauge-func callbacks themselves allocate (see
// BenchmarkScrape for the measured allocs/op).
type scrapeBuf struct {
	b    []byte
	hist HistSnapshot
}

var scrapePool = sync.Pool{New: func() any { return &scrapeBuf{b: make([]byte, 0, 4096)} }}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4). Multi-shard families get a
// {joiner="i"} label per shard; histograms render as summaries. The
// encoder builds the whole document in a pooled buffer and writes it once
// — one syscall per scrape, no per-line formatting allocations. The
// registry lock is held while encoding; registration is startup-only, so
// this never contends with anything but another scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	sb := scrapePool.Get().(*scrapeBuf)
	b := sb.b[:0]

	r.mu.Lock()
	for _, m := range r.infos {
		b = appendHeader(b, m.name, m.help, "gauge")
		b = append(b, m.name...)
		b = append(b, m.labels...)
		b = append(b, " 1\n"...)
	}
	for _, v := range r.counters {
		b = appendHeader(b, v.name, v.help, "counter")
		if len(v.shards) == 1 {
			b = append(b, v.name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, v.shards[0].Load(), 10)
			b = append(b, '\n')
			continue
		}
		for i := range v.shards {
			b = appendShardLabel(b, v.name, i)
			b = strconv.AppendInt(b, v.shards[i].Load(), 10)
			b = append(b, '\n')
		}
	}
	for _, v := range r.gauges {
		b = appendHeader(b, v.name, v.help, "gauge")
		if len(v.shards) == 1 {
			b = append(b, v.name...)
			b = append(b, ' ')
			b = appendFloat(b, v.shards[0].Load())
			b = append(b, '\n')
			continue
		}
		for i := range v.shards {
			b = appendShardLabel(b, v.name, i)
			b = appendFloat(b, v.shards[i].Load())
			b = append(b, '\n')
		}
	}
	for _, g := range r.gfns {
		b = appendHeader(b, g.name, g.help, "gauge")
		b = append(b, g.name...)
		b = append(b, ' ')
		b = appendFloat(b, g.fn())
		b = append(b, '\n')
	}
	for _, g := range r.gvfns {
		b = appendHeader(b, g.name, g.help, "gauge")
		for i, val := range g.fn() {
			b = appendShardLabel(b, g.name, i)
			b = appendFloat(b, val)
			b = append(b, '\n')
		}
	}
	for _, v := range r.hists {
		b = appendHeader(b, v.name, v.help, "summary")
		s := &sb.hist
		*s = HistSnapshot{}
		for i := range v.shards {
			s.Merge(&v.shards[i])
		}
		for _, q := range summaryQuantiles {
			b = append(b, v.name...)
			b = append(b, `{quantile="`...)
			b = appendFloat(b, q)
			b = append(b, `"} `...)
			b = appendFloat(b, float64(s.Quantile(q))/nsPerSecond)
			b = append(b, '\n')
		}
		b = append(b, v.name...)
		b = append(b, "_sum "...)
		b = appendFloat(b, float64(s.Sum)/nsPerSecond)
		b = append(b, '\n')
		b = append(b, v.name...)
		b = append(b, "_count "...)
		b = strconv.AppendInt(b, s.N, 10)
		b = append(b, '\n')
	}
	r.mu.Unlock()

	_, err := w.Write(b)
	sb.b = b
	scrapePool.Put(sb)
	return err
}

// appendFloat renders a float exactly as fmt's %g (shortest unique
// representation) without the fmt allocation.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendShardLabel appends `name{joiner="i"} `.
func appendShardLabel(b []byte, name string, i int) []byte {
	b = append(b, name...)
	b = append(b, `{joiner="`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `"} `...)
	return b
}

func appendHeader(b []byte, name, help, typ string) []byte {
	if help != "" {
		b = append(b, "# HELP "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, help...)
		b = append(b, '\n')
	}
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

// renderLabels formats a label set as {k="v",...}, escaping values per the
// exposition format ("" for an empty set).
func renderLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote, and newline exactly as the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", kv[0], kv[1])
	}
	b.WriteByte('}')
	return b.String()
}

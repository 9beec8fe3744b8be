// Package obs is the live observability layer: lock-free per-joiner
// instruments (padded atomic counters and gauges, streaming histograms), a
// Prometheus encoder and a timeline collector that both render a table of
// metric families over one caller-built snapshot, and an admin HTTP server
// exposing Prometheus text metrics, a JSON statusz, and pprof.
//
// The hot-path contract mirrors the engines' SWMR discipline: every
// instrument is sharded per joiner, exactly one goroutine writes a shard,
// and the scrape path merges shard snapshots — recording is a shard-local
// atomic write, never a lock, so instrumentation cannot perturb the
// throughput the paper measures.
package obs

import (
	"io"
	"math"
	"strconv"
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

// CounterVec is a family of per-shard counters.
type CounterVec struct{ shards []Counter }

// NewCounterVec builds a counter family with the given shard count.
func NewCounterVec(shards int) CounterVec { return CounterVec{make([]Counter, shards)} }

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

// GaugeVec is a family of per-shard gauges.
type GaugeVec struct{ shards []Gauge }

// NewGaugeVec builds a gauge family with the given shard count.
func NewGaugeVec(shards int) GaugeVec { return GaugeVec{make([]Gauge, shards)} }

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

// HistogramVec is a family of per-shard streaming histograms of
// nanosecond values.
type HistogramVec struct{ shards []Histogram }

// NewHistogramVec builds a histogram family with the given shard count.
func NewHistogramVec(shards int) HistogramVec { return HistogramVec{make([]Histogram, shards)} }

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

// Kind is a family's Prometheus type.
type Kind uint8

const (
	KindCounter Kind = iota // integer samples
	KindGauge               // float samples
	KindSummary             // a nanosecond histogram rendered in seconds
	KindInfo                // constant 1 carrying identity labels
)

var kindNames = [...]string{KindCounter: "counter", KindGauge: "gauge", KindSummary: "summary", KindInfo: "gauge"}

// Family declares one metric family and how to read it from a snapshot of
// type S. Exactly one reader is set: Value for one sample, Shard for a
// per-joiner family, Hist for a summary, Labels for an info family.
type Family[S any] struct {
	Name, Help string
	Kind       Kind
	Value      func(*S) float64
	// Shard returns joiner i's sample, false past the last joiner.
	Shard  func(s *S, i int) (float64, bool)
	Hist   func(*S) *HistSnapshot
	Labels func(*S) [][2]string
}

// nsPerSecond converts recorded nanoseconds to rendered seconds.
const nsPerSecond = 1e9

// summaryQuantiles are the summary quantiles rendered for histograms,
// ascending — the grid the paper's CDF figures read off (§III-B).
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

var scrapePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// WritePrometheus renders fams over the snapshot s in the Prometheus text
// exposition format (version 0.0.4). Per-joiner families get a
// {joiner="i"} label per sample. The encoder builds the whole document in
// a pooled buffer with strconv appends and writes it once — one syscall
// per scrape, no per-line formatting allocations.
func WritePrometheus[S any](w io.Writer, fams []Family[S], s *S) error {
	bp := scrapePool.Get().(*[]byte)
	b := (*bp)[:0]
	for i := range fams {
		f := &fams[i]
		b = appendHeader(b, f.Name, f.Help, kindNames[f.Kind])
		switch {
		case f.Labels != nil:
			b = append(b, f.Name...)
			sep := byte('{')
			for _, kv := range f.Labels(s) {
				b = append(b, sep)
				sep = ','
				b = append(b, kv[0]...)
				b = append(b, '=')
				// Go quoting escapes backslash, quote, and newline
				// exactly as the exposition format requires.
				b = strconv.AppendQuote(b, kv[1])
			}
			if sep == ',' {
				b = append(b, '}')
			}
			b = append(b, " 1\n"...)
		case f.Hist != nil:
			h := f.Hist(s)
			for _, q := range summaryQuantiles {
				b = append(b, f.Name...)
				b = append(b, `{quantile="`...)
				b = appendFloat(b, q)
				b = append(b, `"} `...)
				b = appendFloat(b, float64(h.Quantile(q))/nsPerSecond)
				b = append(b, '\n')
			}
			b = append(b, f.Name...)
			b = append(b, "_sum "...)
			b = appendFloat(b, float64(h.Sum)/nsPerSecond)
			b = append(b, '\n')
			b = append(b, f.Name...)
			b = append(b, "_count "...)
			b = strconv.AppendInt(b, h.N, 10)
			b = append(b, '\n')
		case f.Shard != nil:
			for j := 0; ; j++ {
				v, ok := f.Shard(s, j)
				if !ok {
					break
				}
				b = append(b, f.Name...)
				b = append(b, `{joiner="`...)
				b = strconv.AppendInt(b, int64(j), 10)
				b = append(b, `"} `...)
				b = f.Kind.appendValue(b, v)
			}
		default:
			b = append(b, f.Name...)
			b = append(b, ' ')
			b = f.Kind.appendValue(b, f.Value(s))
		}
	}
	_, err := w.Write(b)
	*bp = b
	scrapePool.Put(bp)
	return err
}

// appendValue renders one sample value and its newline: counters as
// integers, gauges exactly as fmt's %g (shortest unique representation).
func (k Kind) appendValue(b []byte, v float64) []byte {
	if k == KindCounter {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = appendFloat(b, v)
	}
	return append(b, '\n')
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
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

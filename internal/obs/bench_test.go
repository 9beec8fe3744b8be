package obs

import (
	"io"
	"testing"
)

// scrapeSnap is a snapshot shaped like a real oijd serving 8 joiners:
// counters, per-joiner gauges, a scalar gauge, an info family and a
// merged latency histogram with recorded samples.
type scrapeSnap struct {
	probes, bases, results []int64
	depth, lag, util       []float64
	uptime                 float64
	latency                *HistSnapshot
}

var scrapeBuildLabels = [][2]string{{"version", "bench"}, {"go", "test"}}

// scrapeFamilies mirrors the family mix of the server's table.
func scrapeFamilies() []Family[scrapeSnap] {
	ints := func(f func(*scrapeSnap) []int64) func(*scrapeSnap, int) (float64, bool) {
		return func(s *scrapeSnap, i int) (float64, bool) { return shardOf(f(s), i) }
	}
	floats := func(f func(*scrapeSnap) []float64) func(*scrapeSnap, int) (float64, bool) {
		return func(s *scrapeSnap, i int) (float64, bool) { return shardOf(f(s), i) }
	}
	return []Family[scrapeSnap]{
		{Name: "oij_build_info", Help: "build identity", Kind: KindInfo, Labels: func(*scrapeSnap) [][2]string { return scrapeBuildLabels }},
		{Name: "oij_probes_total", Help: "probe tuples ingested", Kind: KindCounter, Shard: ints(func(s *scrapeSnap) []int64 { return s.probes })},
		{Name: "oij_bases_total", Help: "base tuples ingested", Kind: KindCounter, Shard: ints(func(s *scrapeSnap) []int64 { return s.bases })},
		{Name: "oij_results_total", Help: "join results emitted", Kind: KindCounter, Shard: ints(func(s *scrapeSnap) []int64 { return s.results })},
		{Name: "oij_queue_depth", Help: "per-joiner queue depth", Kind: KindGauge, Shard: floats(func(s *scrapeSnap) []float64 { return s.depth })},
		{Name: "oij_watermark_lag_seconds", Help: "watermark lag", Kind: KindGauge, Shard: floats(func(s *scrapeSnap) []float64 { return s.lag })},
		{Name: "oij_joiner_utilization", Help: "fraction of epoch spent joining", Kind: KindGauge, Shard: floats(func(s *scrapeSnap) []float64 { return s.util })},
		{Name: "oij_uptime_seconds", Help: "process uptime", Kind: KindGauge, Value: func(s *scrapeSnap) float64 { return s.uptime }},
		{Name: "oij_probe_latency_seconds", Help: "probe latency", Kind: KindSummary, Hist: func(s *scrapeSnap) *HistSnapshot { return s.latency }},
	}
}

func buildScrapeSnap(joiners int) *scrapeSnap {
	s := &scrapeSnap{uptime: 42.5, lag: make([]float64, joiners)}
	lat := NewHistogramVec(joiners)
	for i := 0; i < joiners; i++ {
		s.probes = append(s.probes, int64(1000*(i+1)))
		s.bases = append(s.bases, int64(500*(i+1)))
		s.results = append(s.results, int64(250*(i+1)))
		s.depth = append(s.depth, float64(i*3))
		s.util = append(s.util, float64(i)/float64(joiners))
		h := lat.Shard(i)
		for v := int64(1); v < 4096; v += 17 {
			h.Observe(v * 1000)
		}
	}
	s.latency = lat.Snapshot()
	return s
}

// BenchmarkScrape measures one /metrics render. The encoder builds the
// document in a pooled buffer with strconv appends, so steady-state
// allocs/op stays flat no matter how many families or shards exist.
func BenchmarkScrape(b *testing.B) {
	fams, s := scrapeFamilies(), buildScrapeSnap(8)
	// Warm the pool so the first-iteration buffer growth is not billed.
	if err := WritePrometheus(io.Discard, fams, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePrometheus(io.Discard, fams, s); err != nil {
			b.Fatal(err)
		}
	}
}

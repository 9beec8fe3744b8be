package obs

import (
	"io"
	"testing"
)

// buildScrapeRegistry populates a registry shaped like a real oijd serving
// 8 joiners: the instrument mix mirrors newServerObs (counters, sharded
// gauges, gauge funcs, a sharded latency histogram with recorded samples).
func buildScrapeRegistry(joiners int) *Registry {
	r := NewRegistry()
	r.NewInfo("oij_build_info", "build identity", [][2]string{{"version", "bench"}, {"go", "test"}})
	probes := r.NewCounterVec("oij_probes_total", "probe tuples ingested", joiners)
	bases := r.NewCounterVec("oij_bases_total", "base tuples ingested", joiners)
	results := r.NewCounterVec("oij_results_total", "join results emitted", joiners)
	depth := r.NewGaugeVec("oij_queue_depth", "per-joiner queue depth", joiners)
	r.NewGaugeVec("oij_watermark_lag_seconds", "watermark lag", joiners)
	r.NewGaugeFunc("oij_uptime_seconds", "process uptime", func() float64 { return 42.5 })
	util := r.NewGaugeVec("oij_joiner_utilization", "fraction of epoch spent joining", joiners)
	lat := r.NewHistogramVec("oij_probe_latency_seconds", "probe latency", joiners)
	for i := 0; i < joiners; i++ {
		probes.Shard(i).Add(int64(1000 * (i + 1)))
		bases.Shard(i).Add(int64(500 * (i + 1)))
		results.Shard(i).Add(int64(250 * (i + 1)))
		depth.Shard(i).Set(float64(i * 3))
		util.Shard(i).Set(float64(i) / float64(joiners))
		h := lat.Shard(i)
		for v := int64(1); v < 4096; v += 17 {
			h.Observe(v * 1000)
		}
	}
	return r
}

// BenchmarkScrape measures one /metrics render. The encoder builds the
// document in a pooled buffer with strconv appends, so steady-state
// allocs/op stays flat no matter how many instruments or shards exist.
func BenchmarkScrape(b *testing.B) {
	r := buildScrapeRegistry(8)
	// Warm the pool so the first-iteration buffer growth is not billed.
	if err := r.WritePrometheus(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestBucketLayout(t *testing.T) {
	// Lower bounds are strictly increasing and invert bucketIndex.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo := bucketLower(i)
		if lo <= prev {
			t.Fatalf("bucket %d lower %d <= previous %d", i, lo, prev)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)) = %d", i, got)
		}
		prev = lo
	}
	// Every value lands in a bucket whose range contains it.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100000; n++ {
		v := rng.Int63() >> uint(rng.Intn(60))
		i := bucketIndex(v)
		if lo := bucketLower(i); v < lo {
			t.Fatalf("value %d below its bucket %d lower %d", v, i, lo)
		}
		if i+1 < histBuckets {
			if hi := bucketLower(i + 1); v >= hi {
				t.Fatalf("value %d at or above next bucket lower %d", v, hi)
			}
		}
	}
	if bucketIndex(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := int64(0); v < histSub; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.N != histSub {
		t.Fatalf("N = %d", s.N)
	}
	// Below histSub buckets are exact, so quantiles are exact.
	if got := s.Quantile(0.5); got != histSub/2-1 {
		t.Fatalf("p50 = %d", got)
	}
	if got := s.Quantile(1); got != histSub-1 {
		t.Fatalf("p100 = %d", got)
	}
	if s.Max != histSub-1 {
		t.Fatalf("max = %d", s.Max)
	}
}

// TestHistogramMergeEquivalence is the satellite acceptance check: the
// streaming histogram's quantiles, merged across shards, agree with the
// exact CDF quantiles within one bucket width.
func TestHistogramMergeEquivalence(t *testing.T) {
	const shards = 4
	const perShard = 5000
	rng := rand.New(rand.NewSource(42))
	hs := make([]Histogram, shards)
	var all []int64
	for i := 0; i < shards; i++ {
		for n := 0; n < perShard; n++ {
			// Log-uniform latencies from ~1µs to ~100ms in ns.
			v := int64(1000 * (1 + rng.Float64()*rng.Float64()*100000))
			hs[i].Observe(v)
			all = append(all, v)
		}
	}
	merged := &HistSnapshot{}
	for i := range hs {
		merged.Merge(&hs[i])
	}
	if merged.N != int64(len(all)) {
		t.Fatalf("counts diverge: %d vs %d", merged.N, len(all))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := exactNearestRank(all, q)
		approx := merged.Quantile(q)
		width := bucketWidth(bucketIndex(exact))
		if approx > exact || exact-approx > width {
			t.Fatalf("q=%g: histogram %d vs exact %d (allowed width %d)", q, approx, exact, width)
		}
	}
}

// exactNearestRank is the oracle the histogram is checked against: the
// smallest sample with at least a q fraction of samples at or below it.
func exactNearestRank(samples []int64, q float64) int64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// TestHistogramSmallSetNearestRank pins the nearest-rank convention on the
// small sets a floor-based index gets wrong (int(q*(n-1)) returned the
// third of four samples for p99). Values below histSub sit in one-wide
// buckets, so these quantiles are exact.
func TestHistogramSmallSetNearestRank(t *testing.T) {
	var four Histogram
	for _, v := range []int64{10, 20, 30, 40} {
		four.Observe(v)
	}
	s := four.Snapshot()
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.25, 10}, {0.75, 30}, {0.99, 40}} {
		if got := s.Quantile(c.q); got != c.want {
			t.Fatalf("q=%g of 4 samples = %d, want %d", c.q, got, c.want)
		}
	}
	var one Histogram
	one.Observe(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Snapshot().Quantile(q); got != 7 {
			t.Fatalf("single-sample q=%g = %d, want 7", q, got)
		}
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

// TestHistSnapshotSub splits one stream at random cuts: the difference of
// the snapshots taken at two cuts must equal a fresh histogram of exactly
// the samples between them, bucket for bucket, plus N and Sum.
func TestHistSnapshotSub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63() >> uint(rng.Intn(63))
		}
		cuts := []int{0, rng.Intn(n + 1), rng.Intn(n + 1), n}
		sort.Ints(cuts)
		var live Histogram
		snaps := make([]*HistSnapshot, len(cuts))
		next := 0
		for i, c := range cuts {
			for ; next < c; next++ {
				live.Observe(vals[next])
			}
			snaps[i] = live.Snapshot()
		}
		for i := 1; i < len(cuts); i++ {
			var fresh Histogram
			for _, v := range vals[cuts[i-1]:cuts[i]] {
				fresh.Observe(v)
			}
			want := fresh.Snapshot()
			got := snaps[i].Sub(snaps[i-1])
			if got.N != want.N || got.Sum != want.Sum || got.Counts != want.Counts {
				t.Fatalf("trial %d cut [%d,%d): Sub N=%d sum=%d, fresh N=%d sum=%d (buckets equal: %v)",
					trial, cuts[i-1], cuts[i], got.N, got.Sum, want.N, want.Sum, got.Counts == want.Counts)
			}
		}
	}
}

// TestHistogramConcurrentSnapshot exercises snapshot-while-recording under
// the race detector: one writer per shard, one reader merging continuously.
func TestHistogramConcurrentSnapshot(t *testing.T) {
	const shards = 4
	const perShard = 20000
	hs := make([]Histogram, shards)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := &HistSnapshot{}
			var direct int64
			for i := range hs {
				s.Merge(&hs[i])
			}
			for _, c := range s.Counts {
				direct += int64(c)
			}
			// The invariant mid-run: the snapshot is internally
			// consistent (N equals the summed buckets it actually read).
			if direct != s.N {
				t.Errorf("snapshot N %d != summed buckets %d", s.N, direct)
				return
			}
		}
	}()
	var writerWG sync.WaitGroup
	for i := 0; i < shards; i++ {
		writerWG.Add(1)
		go func(h *Histogram, seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < perShard; n++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(&hs[i], int64(i))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	s := &HistSnapshot{}
	for i := range hs {
		s.Merge(&hs[i])
	}
	if s.N != shards*perShard {
		t.Fatalf("final N = %d, want %d", s.N, shards*perShard)
	}
}

func TestCounterGaugeVecs(t *testing.T) {
	c := NewCounterVec(3)
	c.Shard(0).Add(5)
	c.Shard(1).Inc()
	c.Shard(2).Add(4)
	if c.Total() != 10 {
		t.Fatalf("total = %d", c.Total())
	}
	g := NewGaugeVec(2)
	g.Shard(0).Set(0.25)
	g.Shard(1).Set(-1)
	vs := g.Values()
	if vs[0] != 0.25 || vs[1] != -1 {
		t.Fatalf("gauge values = %v", vs)
	}
}

// instruments is a test snapshot source: the families below read the
// live instruments directly, so a scrape races the writers.
type instruments struct {
	c CounterVec
	g GaugeVec
	h HistogramVec
}

// shardOf reads sample i of a per-shard slice, false past the end.
func shardOf[T int64 | float64](vs []T, i int) (float64, bool) {
	if i >= len(vs) {
		return 0, false
	}
	return float64(vs[i]), true
}

// TestInstrumentsConcurrent hammers shard-local writes with a concurrent
// scraper under -race.
func TestInstrumentsConcurrent(t *testing.T) {
	const shards = 4
	in := &instruments{c: NewCounterVec(shards), g: NewGaugeVec(shards), h: NewHistogramVec(shards)}
	fams := []Family[instruments]{
		{Name: "c_total", Help: "h", Kind: KindCounter, Shard: func(s *instruments, i int) (float64, bool) { return shardOf(s.c.Values(), i) }},
		{Name: "g", Help: "h", Kind: KindGauge, Shard: func(s *instruments, i int) (float64, bool) { return shardOf(s.g.Values(), i) }},
		{Name: "h_seconds", Help: "h", Kind: KindSummary, Hist: func(s *instruments) *HistSnapshot { return s.h.Snapshot() }},
		{Name: "gf", Help: "h", Kind: KindGauge, Value: func(s *instruments) float64 { return float64(s.c.Total()) }},
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := WritePrometheus(&sb, fams, in); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for i := 0; i < shards; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for n := 0; n < 10000; n++ {
				in.c.Shard(i).Inc()
				in.g.Shard(i).Set(float64(n))
				in.h.Shard(i).Observe(int64(n * 1000))
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if in.c.Total() != 4*10000 {
		t.Fatalf("counter total = %d", in.c.Total())
	}
	if in.h.Snapshot().N != 4*10000 {
		t.Fatalf("histogram N = %d", in.h.Snapshot().N)
	}
}

// formatSnap is the snapshot TestWritePrometheusFormat renders.
type formatSnap struct {
	served  int64
	results []int64
	lag     float64
	latency *HistSnapshot
}

func TestWritePrometheusFormat(t *testing.T) {
	var h Histogram
	h.Observe(2_000_000_000)
	snap := &formatSnap{served: 7, results: []int64{0, 3}, lag: 1.5, latency: h.Snapshot()}
	fams := []Family[formatSnap]{
		{Name: "oij_served_total", Help: "Tuples served.", Kind: KindCounter, Value: func(s *formatSnap) float64 { return float64(s.served) }},
		{Name: "oij_results_total", Help: "Results.", Kind: KindCounter, Shard: func(s *formatSnap, i int) (float64, bool) { return shardOf(s.results, i) }},
		{Name: "oij_lag", Help: "Lag.", Kind: KindGauge, Value: func(s *formatSnap) float64 { return s.lag }},
		{Name: "oij_latency_seconds", Help: "Latency.", Kind: KindSummary, Hist: func(s *formatSnap) *HistSnapshot { return s.latency }},
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, fams, snap); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE oij_served_total counter",
		"oij_served_total 7",
		`oij_results_total{joiner="0"} 0`,
		`oij_results_total{joiner="1"} 3`,
		"# TYPE oij_lag gauge",
		"oij_lag 1.5",
		"# TYPE oij_latency_seconds summary",
		"oij_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	// The 2s observation renders in seconds within bucket error (~3%).
	qline := `oij_latency_seconds{quantile="0.5"} `
	i := strings.Index(out, qline)
	if i < 0 {
		t.Fatalf("no quantile line in:\n%s", out)
	}
	rest := out[i+len(qline):]
	rest = rest[:strings.IndexByte(rest, '\n')]
	if !strings.HasPrefix(rest, "1.9") && !strings.HasPrefix(rest, "2") {
		t.Fatalf("p50 rendered as %q, want ≈2s", rest)
	}
}

// TestHistogramNearestRank guards the nearest-rank quantile convention:
// 100 samples 1..100 → p99 is the 99th value.
func TestHistogramNearestRank(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v * 1000)
	}
	s := h.Snapshot()
	got := s.Quantile(0.99)
	// Nearest rank 99 → sample 99000; the bucket lower bound may round
	// down by at most one bucket width.
	if got > 99000 || 99000-got > bucketWidth(bucketIndex(99000)) {
		t.Fatalf("p99 = %d, want within one bucket of 99000", got)
	}
	if s.Quantile(0) != s.Quantile(0.0001) {
		t.Fatal("q≈0 should clamp to rank 1")
	}
}

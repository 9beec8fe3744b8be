package skiplist

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchPut inserts n keys drawn by gen into a fresh list, with eviction
// keeping roughly `live` entries resident — the steady-state streaming
// pattern of the time-travel index.
func benchPut(b *testing.B, live int64, gen func(i int64, rng *rand.Rand) int64) {
	rng := rand.New(rand.NewSource(1))
	l := New[int64, float64](1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := gen(int64(i), rng)
		l.Put(k, float64(i))
		if int64(i)%1024 == 1023 {
			l.EvictBefore(int64(i) - live)
		}
	}
}

func BenchmarkPutAscending(b *testing.B) {
	benchPut(b, 1<<62, func(i int64, _ *rand.Rand) int64 { return i })
}

func BenchmarkPutDisordered1K(b *testing.B) {
	benchPut(b, 1<<62, func(i int64, rng *rand.Rand) int64 { return i - rng.Int63n(1000) })
}

func BenchmarkPutDisordered30K(b *testing.B) {
	benchPut(b, 1<<62, func(i int64, rng *rand.Rand) int64 { return i - rng.Int63n(30_000) })
}

func BenchmarkPutDisordered30KEvicted(b *testing.B) {
	benchPut(b, 60_000, func(i int64, rng *rand.Rand) int64 { return i - rng.Int63n(30_000) })
}

func BenchmarkScan(b *testing.B) {
	l := New[int64, float64](1)
	for i := int64(0); i < 100_000; i++ {
		l.Put(i, float64(i))
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		lo := int64(i%50_000) + 10_000
		l.AscendRange(lo, lo+1000, func(_ int64, v float64) bool {
			sink += v
			return true
		})
	}
	_ = sink
}

// BenchmarkLiveBytesPerEntry measures the heap a list holds per live entry
// in the shape of the wide workload (workload C): 45 lists of about 3,900
// live entries each, keys (event times, µs) advancing at 27k probes/s with
// stragglers up to 13 windows of 500 ms late, and a prefix eviction below
// watermark − window every half retention horizon. One op is one insert;
// after the timed inserts it runs on to the next sweep and reports the heap
// in use after a GC, over the live entries, as B/entry.
func BenchmarkLiveBytesPerEntry(b *testing.B) {
	const (
		lists    = 45
		window   = 500_000
		lateness = 13 * window
		horizon  = window + lateness
		gap      = 37 // µs between probes: 27k/s
	)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapInuse)
	rng := rand.New(rand.NewSource(1))
	ls := make([]*List[int64, float64], lists)
	for i := range ls {
		ls[i] = New[int64, float64](uint64(i) + 1)
	}
	lastSweep := int64(0)
	// put inserts probe i and reports whether it swept.
	put := func(i int) bool {
		now := int64(i) * gap
		ls[rng.Intn(lists)].Put(now-rng.Int63n(lateness+1), float64(i))
		wm := now - lateness
		if wm-lastSweep <= horizon/2 {
			return false
		}
		lastSweep = wm
		for _, l := range ls {
			l.EvictBefore(wm - window)
		}
		return true
	}
	i := 0
	for ; i < 3*horizon/gap; i++ {
		put(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := i + b.N; i < end; i++ {
		put(i)
	}
	b.StopTimer()
	for !put(i) {
		i++
	}
	live := 0
	for _, l := range ls {
		live += l.Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(int64(ms.HeapInuse)-base)/float64(live), "B/entry")
	runtime.KeepAlive(ls)
}

package scaleoij

import (
	"math/rand"
	"testing"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/tuple"
	"oij/internal/workload"
)

// BenchmarkJoinIncremental drives one Scale-OIJ joiner directly — no
// driver goroutine, no ring — over an endless workload-C-shaped stream
// (45 keys, 86.5% in-order bases, probes up to 13 windows late, sum), with
// a watermark every 256 tuples as the transport sends them. A warm-up
// fills the lateness range first, so the timed tuples see the steady
// state: a full index, eviction sweeps, and bases sliding their cached
// windows. One op is one tuple.
func BenchmarkJoinIncremental(b *testing.B) {
	wl := workload.C(0)
	// The stream repeats a pool of (key, side, lateness, value) draws;
	// event time itself keeps advancing at the preset's rate, so nothing
	// is clipped at zero the way a finite generated stream's head is.
	type draw struct {
		key  tuple.Key
		side tuple.Side
		late tuple.Time
		val  float64
	}
	rng := rand.New(rand.NewSource(44))
	pool := make([]draw, 1<<16)
	for i := range pool {
		d := draw{key: tuple.Key(rng.Intn(wl.Keys)), side: tuple.Probe, val: rng.Float64() * 100}
		if rng.Float64() < wl.BaseShare {
			d.side = tuple.Base
		} else {
			d.late = tuple.Time(rng.Int63n(int64(wl.Disorder) + 1))
		}
		pool[i] = d
	}
	usPerTuple := 1e6 / wl.EventRate
	e := New(engine.Config{Joiners: 1, Window: wl.Window, Agg: agg.Sum, Mode: engine.OnArrival}, Default(), engine.NullSink{})
	j := e.js[0]
	step := func(i int) {
		d := pool[i%len(pool)]
		now := wl.Window.Lateness + tuple.Time(float64(i)*usPerTuple)
		j.onTuple(tuple.Tuple{Key: d.key, TS: now - d.late, Val: d.val, Side: d.side, Seq: uint64(i)})
		if i%256 == 255 {
			j.onWatermark(now - wl.Window.Lateness)
		}
	}
	warm := int(float64(wl.Window.Lateness+wl.Window.Len()) / usPerTuple)
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
}

package wal

import (
	"runtime"
	"testing"

	"oij/internal/faultfs"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// The log in isolation, on the in-memory filesystem so the figures are
// the log's own CPU cost, not the disk's:
//
//	go test -run '^$' -bench Append -benchtime 2000000x ./internal/wal
//	go test -run '^$' -bench Replay -benchtime 10x ./internal/wal

// BenchmarkAppend times Append of one probe per op, with a Heartbeat every
// 1024 probes (the ingest loop's idle flush) and 4 MiB segments rotating
// under a short retention, so buffering, write-out and rotation are all
// inside the figure. It reports ns/probe and allocs/probe.
func BenchmarkAppend(b *testing.B) {
	for _, mode := range []SyncMode{SyncNever, SyncInterval} {
		b.Run("sync="+mode.String(), func(b *testing.B) {
			w, err := Open("wal", Options{FS: faultfs.NewMem(), SegmentBytes: 4 << 20, Retention: 1000, Sync: mode})
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(wire.Tuple{TS: tuple.Time(i), Key: tuple.Key(i % 100), Val: 1}); err != nil {
					b.Fatal(err)
				}
				if i%1024 == 1023 {
					if err := w.Heartbeat(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/probe")
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkReplay times Replay over a 1M-frame log split evenly across the
// previous and current segments, reporting ns/frame.
func BenchmarkReplay(b *testing.B) {
	const frames = 1 << 20
	m := faultfs.NewMem()
	var frame [wire.WALFrameBytes]byte
	for seg, name := range []string{"wal.1", "wal"} {
		img := make([]byte, 0, wire.WALHeaderBytes+frames/2*wire.WALFrameBytes)
		img = append(img, wire.WALMagicV2...)
		for i := 0; i < frames/2; i++ {
			ts := tuple.Time(seg*frames/2 + i)
			wire.EncodeWALFrame(frame[:], wire.Tuple{TS: ts, Key: tuple.Key(i % 100), Val: 1})
			img = append(img, frame[:]...)
		}
		m.Put(name, img)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		st, err := Replay(m, "wal", func(wire.Tuple) { n++ })
		if err != nil {
			b.Fatal(err)
		}
		if n != frames || st.Recovered != frames {
			b.Fatalf("replayed %d frames (stats %+v), want %d", n, st, frames)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/frames, "ns/frame")
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/metrics"
	"oij/internal/queue"
	"oij/internal/refjoin"
	"oij/internal/server"
	"oij/internal/timetravel"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// Layer replays time each module's public functions in this process over
// the workload's own tuples, with the daemon stopped so nothing competes
// for the cores. Every replay records a span for 1 call in 64 when lg is
// set.

// replayTuples returns the first n tuples of the stream as the engines see
// them, with per-side sequence numbers as the generator assigns.
func (s *stream) replayTuples(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	var seq [2]uint64
	for g := range out {
		r := s.at(g)
		side := tuple.Probe
		if r.base {
			side = tuple.Base
		}
		out[g] = tuple.Tuple{TS: r.ts, Key: r.key, Val: r.val, Side: side, Seq: seq[side]}
		seq[side]++
	}
	return out
}

// engineConfig is the engine as oijd configures it: a watermark per tuple
// and busy-time tracking (see server.Config defaults).
func engineConfig(s *stream, joiners int) engine.Config {
	return engine.Config{Joiners: joiners, Window: s.window(), Agg: agg.Sum, WatermarkEvery: 1, TrackBusy: true}
}

// memDelta measures allocations over fn.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func toWire(t tuple.Tuple) wire.Tuple {
	return wire.Tuple{Base: t.Side == tuple.Base, TS: t.TS, Key: t.Key, Val: t.Val, ID: t.Seq}
}

// replayWire times frame encode and decode over the tuples, and a result
// frame round trip per base.
func replayWire(ts []tuple.Tuple, lg *traceLog, m map[string]float64) error {
	var buf bytes.Buffer
	buf.Grow(len(ts) * 41)
	var encNS, decNS int64
	var decodeErr error
	mallocs, _ := memDelta(func() {
		w := wire.NewWriter(&buf)
		cs := lg.calls("wire.encode")
		t0 := mono()
		for i, t := range ts {
			var c0 int64
			if cs.sampled(i) {
				c0 = mono()
			}
			if t.Side == tuple.Base {
				w.WriteBaseID(toWire(t))
			} else {
				w.WriteTuple(toWire(t))
			}
			if c0 != 0 {
				cs.add(c0)
			}
		}
		w.Flush()
		encNS = mono() - t0
		cs.done(len(ts))

		r := wire.NewReader(bytes.NewReader(buf.Bytes()))
		cs = lg.calls("wire.decode")
		t0 = mono()
		for i := range ts {
			var c0 int64
			if cs.sampled(i) {
				c0 = mono()
			}
			msg, err := r.Read()
			if err != nil || msg.Tuple.TS != ts[i].TS {
				decodeErr = fmt.Errorf("wire replay: frame %d decoded as %+v (%v)", i, msg.Tuple, err)
				return
			}
			if c0 != 0 {
				cs.add(c0)
			}
		}
		decNS = mono() - t0
		cs.done(len(ts))
	})
	if decodeErr != nil {
		return decodeErr
	}
	m["wire.encode_ns"] = float64(encNS) / float64(len(ts))
	m["wire.decode_ns"] = float64(decNS) / float64(len(ts))
	m["wire.allocs_per_frame"] = float64(mallocs) / float64(2*len(ts))

	buf.Reset()
	w := wire.NewWriter(&buf)
	cs := lg.calls("wire.result_roundtrip")
	n := 0
	t0 := mono()
	for i, t := range ts {
		if t.Side != tuple.Base {
			continue
		}
		var c0 int64
		if cs.sampled(i) {
			c0 = mono()
		}
		w.WriteResult(wire.Result{Seq: t.Seq, TS: t.TS, Key: t.Key, Agg: t.Val, Matches: int64(i)})
		if c0 != 0 {
			cs.add(c0)
		}
		n++
	}
	w.Flush()
	r := wire.NewReader(bytes.NewReader(buf.Bytes()))
	for i := 0; i < n; i++ {
		if _, err := r.Read(); err != nil {
			return fmt.Errorf("result replay: %w", err)
		}
	}
	cs.done(n)
	m["wire.result_roundtrip_ns"] = float64(mono()-t0) / float64(max(n, 1))
	return nil
}

// replayWALFrames times the WAL frame codec over the probes.
func replayWALFrames(ts []tuple.Tuple, lg *traceLog, m map[string]float64) error {
	slab := make([]byte, 0, len(ts)*wire.WALFrameBytes)
	cs := lg.calls("wire.walframe_encode")
	n := 0
	t0 := mono()
	for i, t := range ts {
		if t.Side != tuple.Probe {
			continue
		}
		var c0 int64
		if cs.sampled(i) {
			c0 = mono()
		}
		slab = slab[:len(slab)+wire.WALFrameBytes]
		wire.EncodeWALFrame(slab[len(slab)-wire.WALFrameBytes:], toWire(t))
		if c0 != 0 {
			cs.add(c0)
		}
		n++
	}
	m["wire.walframe_encode_ns"] = float64(mono()-t0) / float64(max(n, 1))
	cs.done(n)
	cs = lg.calls("wire.walframe_decode")
	t0 = mono()
	for i := 0; i < n; i++ {
		var c0 int64
		if cs.sampled(i) {
			c0 = mono()
		}
		if _, err := wire.DecodeWALFrame(slab[i*wire.WALFrameBytes:]); err != nil {
			return fmt.Errorf("walframe replay: frame %d: %w", i, err)
		}
		if c0 != 0 {
			cs.add(c0)
		}
	}
	m["wire.walframe_decode_ns"] = float64(mono()-t0) / float64(max(n, 1))
	cs.done(n)
	return nil
}

// serverConfig is the in-process equivalent of the daemon's flags.
func serverConfig(s *stream, walPath string) server.Config {
	cfg := server.Config{Algorithm: harness.ScaleOIJ, Engine: engine.Config{Joiners: 2, Window: s.window(), Agg: agg.Sum}}
	if walPath != "" {
		cfg.WALPath, cfg.WALSync = walPath, walSync
	}
	return cfg
}

// replayLoopback drives an in-process server over loopback TCP with
// server.Client at saturation and returns ns per tuple; every request must
// be answered.
func replayLoopback(cfg server.Config, ts []tuple.Tuple) (float64, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	c, err := server.Dial(addr.String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	results := make(chan int, 1)
	go func() {
		n := 0
		for {
			m, err := c.Recv()
			if err != nil {
				results <- -1
				return
			}
			if m.Kind == wire.TagFlush {
				results <- n
				return
			}
			if m.Kind == wire.TagResult {
				n++
			}
		}
	}()
	bases := 0
	t0 := mono()
	for i, t := range ts {
		if t.Side == tuple.Base {
			_, err = c.SendBase(t.Key, t.TS, t.Val)
			bases++
		} else {
			err = c.SendProbe(t.Key, t.TS, t.Val)
		}
		if err == nil && i%flushEvery == flushEvery-1 {
			err = c.Flush()
		}
		if err != nil {
			return 0, err
		}
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	select {
	case n := <-results:
		if n != bases {
			return 0, fmt.Errorf("loopback replay: %d results for %d requests", n, bases)
		}
	case <-time.After(barrierTimeout):
		return 0, fmt.Errorf("loopback replay: barrier ack timed out")
	}
	return float64(mono()-t0) / float64(len(ts)), nil
}

// replayRecovery writes the tuples' probes to a WAL through an in-process
// server, then times Server.Recover on a fresh server over that log.
func replayRecovery(s *stream, ts []tuple.Tuple, dir string, m map[string]float64) error {
	walPath := filepath.Join(dir, "recover-wal")
	if _, err := replayLoopback(serverConfig(s, walPath), ts); err != nil {
		return err
	}
	var size int64
	for _, p := range []string{walPath, walPath + ".1"} {
		if fi, err := os.Stat(p); err == nil {
			size += fi.Size()
		}
	}
	srv, err := server.New(serverConfig(s, walPath))
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	t0 := mono()
	n, err := srv.Recover()
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("recovery replay: no frames recovered")
	}
	m["server.wal_recover_ns_per_frame"] = float64(mono()-t0) / float64(n)
	m["server.wal_bytes_per_probe"] = float64(size) / float64(n)
	return nil
}

// replayEngine runs Start → Ingest all → Drain and returns the engine.
func replayEngine(name string, cfg engine.Config, ts []tuple.Tuple, sink engine.Sink, cs *callSpans) (eng engine.Engine, totalNS, ingestNS int64, err error) {
	if eng, err = harness.Build(name, cfg, sink); err != nil {
		return nil, 0, 0, err
	}
	t0 := mono()
	eng.Start()
	t1 := mono()
	for i, t := range ts {
		var c0 int64
		if cs.sampled(i) {
			c0 = mono()
		}
		eng.Ingest(t)
		if c0 != 0 {
			cs.add(c0)
		}
	}
	ingestNS = mono() - t1
	eng.Drain()
	cs.done(len(ts))
	return eng, mono() - t0, ingestNS, nil
}

// replayEngines measures Scale-OIJ and Key-OIJ at 2 joiners over ts, and
// requires both to equal the arrival oracle exactly at 1 joiner over
// exact. It returns the number of answers compared and how many differed.
func replayEngines(s *stream, ts, exact []tuple.Tuple, lg *traceLog, m map[string]float64) (compared, failed int64, err error) {
	n := float64(len(ts))
	for _, name := range []string{harness.ScaleOIJ, harness.KeyOIJ} {
		mod := "scaleoij"
		if name == harness.KeyOIJ {
			mod = "keyoij"
		}
		var eng engine.Engine
		var total, ingest int64
		mallocs, bytes := memDelta(func() {
			eng, total, ingest, err = replayEngine(name, engineConfig(s, 2), ts, &engine.CountSink{}, lg.calls(mod+".ingest"))
		})
		if err != nil {
			return 0, 0, err
		}
		m[mod+".ns_per_tuple"] = float64(total) / n
		m[mod+".unbalancedness"] = metrics.Unbalancedness(eng.Stats().Loads())
		if name == harness.ScaleOIJ {
			m["scaleoij.allocs_per_tuple"] = float64(mallocs) / n
			m["scaleoij.bytes_per_tuple"] = float64(bytes) / n
			m["engine.ingest_call_ns"] = float64(ingest) / n
			m["engine.push_parks_per_mtuple"] = float64(eng.(engine.Introspector).Stalls().Parks) * 1e6 / n
		}
	}
	want := refjoin.ByBaseSeq(refjoin.Arrival(exact, s.window(), agg.Sum))
	for _, name := range []string{harness.ScaleOIJ, harness.KeyOIJ} {
		sink := &engine.CollectSink{}
		if _, _, _, err := replayEngine(name, engineConfig(s, 1), exact, sink, nil); err != nil {
			return 0, 0, err
		}
		got := sink.ByBaseSeq()
		for seq, w := range want {
			compared++
			g, ok := got[seq]
			if !ok || g.Matches != w.Matches || math.Abs(g.Agg-w.Agg) > 1e-6*math.Max(1, math.Abs(w.Agg)) {
				failed++
			}
		}
	}
	return compared, failed, nil
}

// replayEngineIdle measures the CPU a started, input-less Scale-OIJ engine
// with 2 joiners burns per wall second.
func replayEngineIdle(s *stream, idle time.Duration, m map[string]float64) error {
	eng, err := harness.Build(harness.ScaleOIJ, engineConfig(s, 2), &engine.CountSink{})
	if err != nil {
		return err
	}
	eng.Start()
	c0, t0 := selfCPUSeconds(), time.Now()
	time.Sleep(idle)
	m["engine.idle_cpu_cores"] = (selfCPUSeconds() - c0) / time.Since(t0).Seconds()
	eng.Drain()
	return nil
}

// replayTimeTravel replays the index single-threaded: Put per probe,
// ScanWindow per base, EvictBefore every 256 tuples at the workload's
// watermark. A second pass without scans isolates the scan cost.
func replayTimeTravel(s *stream, ts []tuple.Tuple, lg *traceLog, m map[string]float64) {
	w := s.window()
	pass := func(scan bool, cs *callSpans) (totalNS, evictNS int64, puts, scans, evicts, visited, live int) {
		ix := timetravel.New(1)
		var maxTS tuple.Time
		var sum float64
		fn := func(_ tuple.Time, v float64) bool { sum += v; return true }
		t0 := mono()
		for i, t := range ts {
			var c0 int64
			if cs.sampled(i) {
				c0 = mono()
			}
			if t.Side == tuple.Probe {
				ix.Put(t)
				puts++
			} else if scan {
				lo, hi := w.Bounds(t.TS)
				visited += ix.ScanWindow(t.Key, lo, hi, fn)
				scans++
			}
			if c0 != 0 {
				cs.add(c0)
			}
			maxTS = max(maxTS, t.TS)
			if i%256 == 255 {
				e0 := mono()
				ix.EvictBefore(maxTS - w.Lateness - w.Len())
				evictNS += mono() - e0
				evicts++
			}
		}
		cs.done(len(ts))
		return mono() - t0, evictNS, puts, scans, evicts, visited, ix.Len()
	}
	putTotal, putEvict, puts, _, evicts, _, _ := pass(false, nil)
	scanTotal, _, _, scans, _, visited, live := pass(true, lg.calls("timetravel.put_scan"))
	m["timetravel.put_ns"] = float64(putTotal-putEvict) / float64(max(puts, 1))
	m["timetravel.evict_ns"] = float64(putEvict) / float64(max(evicts, 1))
	m["timetravel.scan_ns"] = float64(scanTotal-putTotal) / float64(max(scans, 1))
	m["timetravel.matches_per_scan"] = float64(visited) / float64(max(scans, 1))
	m["timetravel.live_tuples"] = float64(live)
}

// replayQueue pushes items through one SPSC ring, producer calling TryPush
// and consumer PopBatch(64), and returns ns per item.
func replayQueue(items int, lg *traceLog, m map[string]float64) {
	q := queue.NewSPSC[uint64](8192)
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]uint64, 64)
		for got := 0; got < items; {
			n := q.PopBatch(batch)
			if n == 0 {
				runtime.Gosched()
			}
			got += n
		}
	}()
	cs := lg.calls("queue.push")
	t0 := mono()
	for i := 0; i < items; i++ {
		var c0 int64
		if cs.sampled(i) {
			c0 = mono()
		}
		for !q.TryPush(uint64(i)) {
			runtime.Gosched()
		}
		if c0 != 0 {
			cs.add(c0)
		}
	}
	<-done
	m["queue.spsc_ns_per_item"] = float64(mono()-t0) / float64(items)
	cs.done(items)
}

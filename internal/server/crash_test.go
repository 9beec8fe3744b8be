package server

import (
	"math"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/faultfs"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/wal"
	"oij/internal/window"
	"oij/internal/wire"
)

// The crash-point matrix over the bare log lives in internal/wal; this
// file holds the scripted ingest it shares with the server-level crash and
// replication tests, and the end-to-end crash test over TCP. Values are
// small integers so sums are exact under any accumulation order and
// "byte-equivalent" means Float64bits equality.

// crashWindow is sized so the scripted disorder (15µs) stays inside
// lateness and no probe is ever evicted before the queries run.
func crashWindow() window.Spec {
	return window.Spec{Pre: 500, Fol: 0, Lateness: 50}
}

// crashScript is the deterministic scripted ingest: probes only
// (the WAL's content), with mild disorder and key spread.
func crashScript(n int) []wire.Tuple {
	out := make([]wire.Tuple, n)
	for i := range out {
		ts := tuple.Time(1000 + 10*i)
		if i%5 == 3 {
			ts -= 15
		}
		out[i] = wire.Tuple{TS: ts, Key: tuple.Key(i%4 + 1), Val: float64(i%7 + 1)}
	}
	return out
}

// crashQueries are the base requests answered after recovery.
func crashQueries() []tuple.Tuple {
	var out []tuple.Tuple
	for i, key := range []tuple.Key{1, 2, 3, 4, 1, 2} {
		out = append(out, tuple.Tuple{
			Side: tuple.Base, Seq: uint64(i), Key: key,
			TS: tuple.Time(1200 + 40*i),
		})
	}
	return out
}

// replayInto collects the surviving WAL content.
func replayInto(t *testing.T, fs faultfs.FS) ([]wire.Tuple, wal.Stats) {
	t.Helper()
	var survived []wire.Tuple
	st, err := wal.Replay(fs, "wal", func(tp wire.Tuple) { survived = append(survived, tp) })
	if err != nil {
		t.Fatal(err)
	}
	return survived, st
}

// oracleInput rebuilds the oracle's view of the run: the surviving probes
// in log order, then the queries (the ingest order answer uses).
func oracleInput(survived []wire.Tuple) []tuple.Tuple {
	var in []tuple.Tuple
	for _, p := range survived {
		in = append(in, tuple.Tuple{Side: tuple.Probe, TS: p.TS, Key: p.Key, Val: p.Val})
	}
	return append(in, crashQueries()...)
}

// assertPrefix checks that the survivors are a bitwise prefix of the
// script — the WAL's fundamental crash contract: it may lose a suffix,
// never reorder, corrupt, or invent.
func assertPrefix(t *testing.T, ctx string, survived, script []wire.Tuple) {
	t.Helper()
	if len(survived) > len(script) {
		t.Fatalf("%s: recovered %d frames from a %d-frame script", ctx, len(survived), len(script))
	}
	for i, p := range survived {
		s := script[i]
		if p.Base || p.TS != s.TS || p.Key != s.Key || math.Float64bits(p.Val) != math.Float64bits(s.Val) {
			t.Fatalf("%s: frame %d diverged: got %+v want %+v", ctx, i, p, s)
		}
	}
}

// TestCrashRecoveryEndToEnd drives the full server path on the injectable
// filesystem: stream probes over TCP with fsync-on-ack, lose power the
// moment the barrier acks, recover in a second server, and require the
// answers to match the oracle over the complete script — with sync=always
// every acknowledged probe must survive.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	m := faultfs.NewMem()
	cfg := baseCfg()
	cfg.Engine.Window = crashWindow()
	cfg.Engine.Joiners = 1
	cfg.WALPath = "wal"
	cfg.WALFS = m
	cfg.WALSync = "always"

	script := crashScript(24)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range script {
		c1.SendProbe(p.Key, p.TS, p.Val)
	}
	c1.Barrier()
	if _, err := c1.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The barrier acked: every probe has been appended and fsynced. Pull
	// the plug before any orderly shutdown.
	m.KillPower()
	c1.Close()
	s1.Shutdown()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(script) {
		t.Fatalf("recovered %d of %d acknowledged probes", n, len(script))
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()

	c2, err := Dial(addr2.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	queries := crashQueries()
	for _, q := range queries {
		c2.SendBase(q.Key, q.TS, 0)
	}
	c2.Barrier()
	rs, err := c2.RecvResults(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(queries) {
		t.Fatalf("%d answers for %d queries", len(rs), len(queries))
	}

	var in []tuple.Tuple
	for _, p := range script {
		in = append(in, tuple.Tuple{Side: tuple.Probe, TS: p.TS, Key: p.Key, Val: p.Val})
	}
	want := refjoin.Arrival(append(in, queries...), crashWindow(), agg.Sum)
	for i, r := range rs {
		w := want[i]
		if r.Matches != w.Matches || math.Float64bits(r.Agg) != math.Float64bits(w.Agg) {
			t.Fatalf("query %d: got (agg=%v matches=%d), oracle (agg=%v matches=%d)",
				i, r.Agg, r.Matches, w.Agg, w.Matches)
		}
	}
}

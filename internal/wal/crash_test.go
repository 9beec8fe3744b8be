package wal

import (
	"math"
	"testing"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/faultfs"
	"oij/internal/harness"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/wire"
)

// The crash-point harness: a scripted ingest runs against the injectable
// filesystem, the process is "killed" at the Nth filesystem operation (for
// every N), recovery replays what survived, and a fresh engine fed the
// survivors must answer byte-equivalently to the refjoin oracle evaluated
// on the same surviving prefix. Values are small integers so sums are
// exact under any accumulation order and "byte-equivalent" means
// Float64bits equality.

// crashWindow is sized so the scripted disorder (15µs) stays inside
// lateness and no probe is ever evicted before the queries run.
func crashWindow() window.Spec {
	return window.Spec{Pre: 500, Fol: 0, Lateness: 50}
}

// crashScript is the deterministic ingest the matrix replays: probes only
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

// runWALScript drives the WAL writer over the script, ignoring append and
// heartbeat errors exactly like the serving path does (durability
// degraded, availability kept). It never closes the writer: the process
// dies at whatever the armed fault dictates.
func runWALScript(fs *faultfs.Mem, probes []wire.Tuple, sync SyncMode) {
	w, err := openWriter(fs, 1<<20, 1_000_000, sync)
	if err != nil {
		return // injected failure during open: nothing was logged
	}
	for i, p := range probes {
		w.Append(p)
		if sync != SyncAlways && i%7 == 6 {
			w.Heartbeat()
		}
	}
}

// replayInto collects the surviving WAL content.
func replayInto(t *testing.T, fs faultfs.FS) ([]wire.Tuple, Stats) {
	t.Helper()
	var survived []wire.Tuple
	st, err := Replay(fs, "wal", func(tp wire.Tuple) { survived = append(survived, tp) })
	if err != nil {
		t.Fatal(err)
	}
	return survived, st
}

// answer runs the surviving probes plus the scripted queries through an
// engine built by name and returns the results keyed by base seq.
func answer(t *testing.T, algorithm string, joiners int, mode engine.EmitMode, survived []wire.Tuple) map[uint64]tuple.Result {
	t.Helper()
	sink := &engine.CollectSink{}
	eng, err := harness.Build(algorithm, engine.Config{
		Joiners: joiners, Window: crashWindow(), Agg: agg.Sum, Mode: mode,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	for _, p := range survived {
		eng.Ingest(tuple.Tuple{Side: tuple.Probe, TS: p.TS, Key: p.Key, Val: p.Val})
	}
	for _, q := range crashQueries() {
		eng.Ingest(q)
	}
	eng.Drain()
	return sink.ByBaseSeq()
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

// assertByteEqual compares engine answers against oracle results bit for
// bit.
func assertByteEqual(t *testing.T, ctx string, got map[uint64]tuple.Result, want []tuple.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d", ctx, len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.BaseSeq]
		if !ok {
			t.Fatalf("%s: missing result for base seq %d", ctx, w.BaseSeq)
		}
		if g.Matches != w.Matches || math.Float64bits(g.Agg) != math.Float64bits(w.Agg) {
			t.Fatalf("%s: base seq %d: got (agg=%v matches=%d), oracle (agg=%v matches=%d)",
				ctx, w.BaseSeq, g.Agg, g.Matches, w.Agg, w.Matches)
		}
	}
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

// TestCrashPointRecoveryMatrix is the satellite matrix: for every
// filesystem operation N of a scripted ingest, and for every fault flavor
// (hard error, short write, silent crash), kill the run at operation N,
// recover, and check (a) the log's prefix contract and (b) byte-equal
// answers between a recovered engine and the refjoin oracle on the
// surviving prefix. "always" runs additionally lose power (only fsynced
// bytes survive); "interval" runs model a process kill where the OS page
// cache survives.
func TestCrashPointRecoveryMatrix(t *testing.T) {
	script := crashScript(36)

	type fault struct {
		name string
		arm  func(*faultfs.Mem, int)
	}
	faults := []fault{
		{"fail", func(m *faultfs.Mem, n int) { m.FailAt(n) }},
		{"short", func(m *faultfs.Mem, n int) { m.ShortWriteAt(n) }},
		{"crash", func(m *faultfs.Mem, n int) { m.CrashAt(n) }},
	}

	for _, sync := range []SyncMode{SyncAlways, SyncInterval} {
		// Dry run to size the sweep: every op index is a crash point.
		clean := faultfs.NewMem()
		runWALScript(clean, script, sync)
		ops := clean.Ops()
		if ops < 5 {
			t.Fatalf("sync=%s: dry run took only %d ops — matrix degenerate", sync, ops)
		}

		for _, f := range faults {
			for k := 1; k <= ops; k++ {
				ctx := "sync=" + sync.String() + "/" + f.name + "/op=" + itoa(k)
				m := faultfs.NewMem()
				f.arm(m, k)
				runWALScript(m, script, sync)
				if sync == SyncAlways {
					// fsync-on-ack's promise is power-loss durability.
					m.KillPower()
				}

				survived, st := replayInto(t, m)
				if st.Skipped != 0 {
					t.Fatalf("%s: %d frames failed checksum with no corruption injected", ctx, st.Skipped)
				}
				assertPrefix(t, ctx, survived, script)

				// Arrival semantics, single joiner: deterministic, so the
				// recovered engine must match the oracle bit for bit.
				got := answer(t, harness.KeyOIJ, 1, engine.OnArrival, survived)
				want := refjoin.Arrival(oracleInput(survived), crashWindow(), agg.Sum)
				assertByteEqual(t, ctx, got, want)

				// Sampled points also go through the parallel watermark
				// path: exact event-time semantics are deterministic
				// regardless of joiner interleaving.
				if k%8 == 0 {
					got = answer(t, harness.ScaleOIJ, 3, engine.OnWatermark, survived)
					want = refjoin.EventTime(oracleInput(survived), crashWindow(), agg.Sum)
					assertByteEqual(t, ctx+"/watermark", got, want)
				}
			}
		}
	}
}

// itoa avoids pulling strconv into the test just for context strings.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

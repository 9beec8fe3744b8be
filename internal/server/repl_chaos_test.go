package server

import (
	"math"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/chaos"
	"oij/internal/faultfs"
	"oij/internal/refjoin"
	"oij/internal/repl"
	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/wire"
)

// The adversarial replication matrix: the primary is killed, partitioned,
// or torn mid-stream at every interesting protocol step, and in every
// case the promoted standby's answers must be byte-equal to the refjoin
// oracle evaluated over the standby's own replicated WAL — the applied
// prefix is the contract, and it must be an exact prefix of what the
// primary wrote. The log-level sweeps of segment rotation racing an
// in-flight catch-up ship live beside the feed in internal/wal.

// replServerCfg is the shared node configuration of the chaos pairs.
func replServerCfg(m *faultfs.Mem) Config {
	cfg := baseCfg()
	cfg.Engine.Window = crashWindow()
	cfg.Engine.Joiners = 1
	cfg.WALPath = "wal"
	cfg.WALFS = m
	cfg.WALSync = "always"
	return cfg
}

// chaosWindow is the pair tests' wide window: with 240-frame scripts
// (timestamps up to ~3400) the crash tests' 500µs window would evict
// probes the oracle — which models no eviction — still counts. A 10ms
// PRECEDING bound keeps every scripted probe retained for every query.
func chaosWindow() window.Spec {
	return window.Spec{Pre: 10_000, Fol: 0, Lateness: 50}
}

// lateQueries are base requests timed past the end of a 300-frame script
// (max probe ts 3990), so they are never late against the watermark and
// their windows sit inside the engine's retained horizon even under the
// crash tests' tight 500µs window.
func lateQueries() []tuple.Tuple {
	var out []tuple.Tuple
	for i, key := range []tuple.Key{1, 2, 3, 4, 1, 2} {
		out = append(out, tuple.Tuple{
			Side: tuple.Base, Seq: uint64(i), Key: key,
			TS: tuple.Time(4000 + 40*i),
		})
	}
	return out
}

// askQueries sends the base requests to a serving node and returns its
// answers in query order, failing the test on any transport error.
func askQueries(t *testing.T, addr string, queries []tuple.Tuple) []wire.Result {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range queries {
		if _, err := c.SendBase(q.Key, q.TS, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Barrier()
	rs, err := c.RecvResults(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(queries) {
		t.Fatalf("%d answers for %d queries", len(rs), len(queries))
	}
	return rs
}

// assertOracleAnswers is the differential heart: the node's live answers
// must bit-equal the refjoin oracle fed the node's own replicated WAL
// content (the applied prefix) plus the same queries.
func assertOracleAnswers(t *testing.T, ctx string, rs []wire.Result, survived []wire.Tuple, w window.Spec, queries []tuple.Tuple) {
	t.Helper()
	in := make([]tuple.Tuple, 0, len(survived)+len(queries))
	for _, p := range survived {
		in = append(in, tuple.Tuple{Side: tuple.Probe, TS: p.TS, Key: p.Key, Val: p.Val})
	}
	in = append(in, queries...)
	want := refjoin.Arrival(in, w, agg.Sum)
	nonzero := false
	for i, r := range rs {
		o := want[i]
		if r.Matches != o.Matches || math.Float64bits(r.Agg) != math.Float64bits(o.Agg) {
			t.Fatalf("%s: query %d: got (agg=%v matches=%d), oracle (agg=%v matches=%d)",
				ctx, i, r.Agg, r.Matches, o.Agg, o.Matches)
		}
		if o.Matches > 0 {
			nonzero = true
		}
	}
	if !nonzero && len(survived) > 20 {
		t.Fatalf("%s: every oracle answer empty over %d probes — the differential proved nothing", ctx, len(survived))
	}
}

// sendScript streams probes to a server and waits for the barrier ack, so
// every probe is appended and fsynced when it returns.
func sendScript(t *testing.T, addr string, script []wire.Tuple) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, p := range script {
		c.SendProbe(p.Key, p.TS, p.Val)
	}
	c.Barrier()
	if _, err := c.RecvResults(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReplChaosPartitionZombieWrites partitions an in-sync pair: the
// standby must promote after the lease, the old primary must self-fence
// strictly earlier (3D/4 < D) and refuse post-fence writes without
// extending its WAL — the zombie-ack hole the fencing epoch closes.
func TestReplChaosPartitionZombieWrites(t *testing.T) {
	m1, m2 := faultfs.NewMem(), faultfs.NewMem()
	pcfg := replServerCfg(m1)
	pcfg.ReplListenAddr = "127.0.0.1:0"
	pcfg.ReplLease = pairLease
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	paddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	// The standby reaches the primary through a chaos proxy so the
	// partition can be injected without killing either process.
	proxy, err := chaos.Listen(waitReplAddr(t, p))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	scfg := replServerCfg(m2)
	scfg.StandbyOf = proxy.Addr()
	scfg.ReplLease = pairLease
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	saddr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	script := crashScript(24)
	sendScript(t, paddr.String(), script)
	waitApplied(t, s, uint64(len(script)))

	// Partition: kill the established links and refuse reconnects.
	proxy.SetRefuseNew(true)
	proxy.DropActive()

	// The primary must fence itself on ack silence — before the standby's
	// promotion deadline — and the standby must then promote on lease
	// expiry. Both transitions are observed, not induced.
	waitRole(t, p, repl.RoleFenced)
	if got := s.ReplRole(); got == repl.RolePrimary {
		t.Fatal("standby promoted before the primary fenced: zombie window")
	}
	waitRole(t, s, repl.RolePrimary)

	// Zombie writes: the fenced ex-primary must NACK and must not grow
	// its log — an acked write here would fork the promoted history.
	before, _ := p.wal.Slots()
	expectNack(t, paddr.String(), wire.NackFenced)
	func() {
		c, err := Dial(paddr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 10; i++ {
			c.SendProbe(9, 5000, 1)
		}
		c.Barrier()
		c.RecvResults(2 * time.Second)
	}()
	if after, _ := p.wal.Slots(); after != before {
		t.Fatalf("fenced primary extended its WAL: %d -> %d slots", before, after)
	}
	if !flightHas(p, "repl_fenced") {
		t.Fatal("fenced primary flight recorder missing repl_fenced")
	}

	// The promoted standby serves the full replicated history.
	rs := askQueries(t, saddr.String(), crashQueries())
	survived, _ := replayInto(t, m2)
	assertPrefix(t, "partition", survived, script)
	if len(survived) != len(script) {
		t.Fatalf("in-sync standby lost frames: %d of %d", len(survived), len(script))
	}
	assertOracleAnswers(t, "partition", rs, survived, crashWindow(), crashQueries())
}

// TestReplChaosTornStreamResumes tears the TCP stream mid-catch-up (a
// frame may be cut in half on the wire) and requires the standby to
// reconnect, resume at its durable slot, and converge on a byte-identical
// log — frame-granular resumption.
func TestReplChaosTornStreamResumes(t *testing.T) {
	m1, m2 := faultfs.NewMem(), faultfs.NewMem()
	pcfg := replServerCfg(m1)
	pcfg.ReplListenAddr = "127.0.0.1:0"
	pcfg.ReplLease = pairLease
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	paddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	// Preload the log so the standby has a long catch-up to tear.
	script := crashScript(240)
	sendScript(t, paddr.String(), script)

	proxy, err := chaos.Listen(waitReplAddr(t, p))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// Trickle the catch-up: tiny chunks with a stall per chunk, so the
	// tear lands mid-ship (and likely mid-frame).
	proxy.SetChunk(64)
	proxy.SetStall(1, 2*time.Millisecond)

	scfg := replServerCfg(m2)
	scfg.StandbyOf = proxy.Addr()
	scfg.ReplLease = pairLease
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	// Wait until the standby is mid-catch-up, then cut every connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := s.Statusz().Replication; st != nil && st.ReplayOffset > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never started applying")
		}
		time.Sleep(time.Millisecond)
	}
	proxy.DropActive()
	proxy.ClearFaults()

	waitApplied(t, s, uint64(len(script)))
	if s.ReplRole() != repl.RoleStandby {
		t.Fatalf("standby role %v after resume, want standby (primary never died)", s.ReplRole())
	}
	// At least two connects: the original and the post-tear resume.
	connects := 0
	for _, e := range s.flight.Snapshot() {
		if e.Kind == "repl_connect" {
			connects++
		}
	}
	if connects < 2 {
		t.Fatalf("standby reconnected %d times, want >= 2 (torn stream must re-handshake)", connects)
	}
	survived, _ := replayInto(t, m2)
	if len(survived) != len(script) {
		t.Fatalf("resumed standby holds %d of %d frames", len(survived), len(script))
	}
	assertPrefix(t, "torn-stream", survived, script)
}

// TestReplChaosKillDuringCatchUp kills the primary while the standby is
// still replaying history: the standby promotes with a partial prefix,
// and its answers must match the oracle over exactly that prefix — a
// correct answer over less data, never a wrong answer.
func TestReplChaosKillDuringCatchUp(t *testing.T) {
	m1, m2 := faultfs.NewMem(), faultfs.NewMem()
	pcfg := replServerCfg(m1)
	pcfg.Engine.Window = chaosWindow()
	pcfg.ReplListenAddr = "127.0.0.1:0"
	pcfg.ReplLease = pairLease
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	paddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	script := crashScript(240)
	sendScript(t, paddr.String(), script)

	proxy, err := chaos.Listen(waitReplAddr(t, p))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetChunk(64)
	proxy.SetStall(1, 2*time.Millisecond)

	scfg := replServerCfg(m2)
	scfg.Engine.Window = chaosWindow()
	scfg.StandbyOf = proxy.Addr()
	scfg.ReplLease = pairLease
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	saddr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	// Kill the primary once the standby is mid-catch-up (some but not all
	// frames applied).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := s.Statusz().Replication; st != nil && st.ReplayOffset > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never started applying")
		}
		time.Sleep(time.Millisecond)
	}
	m1.KillPower()
	p.Shutdown()
	proxy.DropActive()

	waitRole(t, s, repl.RolePrimary)
	if !flightHas(s, "repl_promote") {
		t.Fatal("standby flight recorder missing repl_promote")
	}

	rs := askQueries(t, saddr.String(), crashQueries())
	survived, _ := replayInto(t, m2)
	if len(survived) == 0 {
		t.Fatal("standby promoted with an empty log despite applying frames")
	}
	assertPrefix(t, "kill-during-catch-up", survived, script)
	assertOracleAnswers(t, "kill-during-catch-up", rs, survived, chaosWindow(), crashQueries())
	archiveFailoverFlight(t, s, "failover-catchup-flight")
	t.Logf("promoted with %d of %d frames applied", len(survived), len(script))
}

// TestReplCatchUpAcrossRotation joins an empty standby to a primary whose
// WAL has already rotated (its oldest slots are gone): the standby must
// accept a reset to the oldest retained slot, catch up, and keep
// following while the primary rotates again under live appends — the
// regression test for segment rotation during an in-flight ship.
func TestReplCatchUpAcrossRotation(t *testing.T) {
	m1, m2 := faultfs.NewMem(), faultfs.NewMem()
	pcfg := replServerCfg(m1)
	pcfg.ReplListenAddr = "127.0.0.1:0"
	pcfg.ReplLease = pairLease
	pcfg.walSegmentBytes = 40 * wire.WALFrameBytes
	p, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	paddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	script := crashScript(300)
	sendScript(t, paddr.String(), script[:260])
	oldest := p.wal.Feed().Oldest()
	if oldest == 0 {
		t.Fatalf("no rotation after 260 frames in %d-byte segments", pcfg.walSegmentBytes)
	}

	scfg := replServerCfg(m2)
	scfg.StandbyOf = waitReplAddr(t, p)
	scfg.ReplLease = pairLease
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	saddr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	waitApplied(t, s, 260)
	// Live tail across another potential rotation.
	sendScript(t, paddr.String(), script[260:])
	waitApplied(t, s, 300)

	st := s.Statusz().Replication
	if st == nil || st.ReplayOffset != 300 {
		t.Fatalf("standby status %+v, want replay offset 300", st)
	}
	// The standby holds exactly the retained suffix, byte-faithfully.
	survived, _ := replayInto(t, m2)
	assertPrefix(t, "post-rotation", survived, script[oldest:])
	if uint64(len(survived)) != 300-oldest {
		t.Fatalf("standby holds %d frames, want the %d retained (oldest %d)",
			len(survived), 300-oldest, oldest)
	}

	// Promote and prove the suffix answers match the oracle on it.
	p.Shutdown()
	waitRole(t, s, repl.RolePrimary)
	rs := askQueries(t, saddr.String(), lateQueries())
	assertOracleAnswers(t, "post-rotation", rs, survived, crashWindow(), lateQueries())
}

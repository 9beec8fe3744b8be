package server

import (
	"bytes"
	"math"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/wire"
)

// routedPending counts, from the route ring's own bookkeeping, the
// registered bases whose routes were not taken yet: every mapped chunk's
// unanswered count, less the slots of the newest chunk that no base has
// filled. Atomic loads only, so it is safe while the server runs.
func routedPending(s *Server) int64 {
	d := s.routes.dir.Load()
	if d == nil {
		return 0
	}
	var n int64
	var newest uint64
	for i := range d.slots {
		if c := d.slots[i].Load(); c != nil {
			n += c.unanswered.Load()
			newest = max(newest, c.id.Load())
		}
	}
	registered := uint64(s.o.bases.Load())
	return n - int64(newest<<routeChunkBits+routeChunkLen-registered)
}

// mappedChunks counts the chunks in the route ring's directory.
func mappedChunks(s *Server) int {
	n := 0
	if d := s.routes.dir.Load(); d != nil {
		for i := range d.slots {
			if d.slots[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// pendingGauge scrapes oij_pending_requests from the registry.
func pendingGauge(t *testing.T, s *Server) int {
	t.Helper()
	var b strings.Builder
	writeMetrics(&b, s)
	return int(metricValue(t, b.String(), "oij_pending_requests"))
}

// waitUntil polls cond every millisecond for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sortResults orders results by every field, so two multisets compare
// equal exactly when they hold the same answers.
func sortResults(rs []wire.Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		switch {
		case a.Seq != b.Seq:
			return a.Seq < b.Seq
		case a.TS != b.TS:
			return a.TS < b.TS
		case a.Key != b.Key:
			return a.Key < b.Key
		case a.Agg != b.Agg:
			return a.Agg < b.Agg
		}
		return a.Matches < b.Matches
	})
}

// TestRoutesClientIDs: a client chooses its request ids, so an id can
// repeat while both requests are in flight and can be any uint64. The
// engine seq never carries it, so every request of two sessions that use
// the same ids is answered exactly once, with the event-time oracle's
// answer, on Scale-OIJ with two joiners and on SplitJoin (which keys its
// partial aggregates by the engine seq).
func TestRoutesClientIDs(t *testing.T) {
	for _, alg := range []string{harness.ScaleOIJ, harness.SplitJoin} {
		t.Run(alg, func(t *testing.T) { testRoutesClientIDs(t, alg) })
	}
}

func testRoutesClientIDs(t *testing.T, alg string) {
	cfg := Config{
		Algorithm: alg,
		Engine: engine.Config{
			Joiners: 2,
			Mode:    engine.OnWatermark,
			// Lateness past every event time below holds each answer
			// until the closing probe, so every request is in flight at
			// once.
			Window: window.Spec{Pre: 100, Fol: 0, Lateness: 1_000_000},
			Agg:    agg.Sum,
		},
	}
	s, addr := startServer(t, cfg)
	ids := []uint64{7, 7, 1 << 63, math.MaxUint64, 0, 7, math.MaxUint64, 1 << 63, 0, 1}
	const sessions, rounds, keys = 2, 30, 4

	type request struct {
		sess int
		id   uint64
	}
	var all []tuple.Tuple // every probe and base, bases numbered by index into reqs
	var reqs []request
	conns := make([]net.Conn, sessions)
	for i := range conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for r := 0; r < rounds; r++ {
			for p := 0; p < keys; p++ {
				pt := tuple.Tuple{TS: tuple.Time(1000 + r*10 + p), Key: tuple.Key(p), Val: float64(100*i + r + 1), Side: tuple.Probe}
				w.WriteTuple(wire.Tuple{TS: pt.TS, Key: pt.Key, Val: pt.Val})
				all = append(all, pt)
			}
			for j, id := range ids {
				bt := tuple.Tuple{TS: tuple.Time(1000 + r*10 + j), Key: tuple.Key((r + j + i) % keys), Side: tuple.Base, Seq: uint64(len(reqs))}
				w.WriteBaseID(wire.Tuple{Base: true, TS: bt.TS, Key: bt.Key, ID: id})
				all = append(all, bt)
				reqs = append(reqs, request{i, id})
			}
		}
		w.Flush()
		if _, err := conn.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every request registered", func() bool { return s.o.bases.Load() == int64(len(reqs)) })
	if p := s.Statusz().PendingRequests; p != len(reqs) {
		t.Fatalf("pending_requests = %d with every answer held, want %d", p, len(reqs))
	}

	closer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	closer.SendProbe(keys, 10_000_000, 0)
	closer.Flush()

	want := make([][]wire.Result, sessions)
	for _, r := range refjoin.EventTime(all, cfg.Engine.Window, cfg.Engine.Agg) {
		q := reqs[r.BaseSeq]
		want[q.sess] = append(want[q.sess], wire.Result{Seq: q.id, TS: r.BaseTS, Key: r.Key, Agg: r.Agg, Matches: r.Matches})
	}
	for i, conn := range conns {
		c := NewClient(conn)
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvResults(10 * time.Second)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		sortResults(got)
		sortResults(want[i])
		if len(got) != len(want[i]) {
			t.Fatalf("session %d: %d answers, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("session %d answer %d: got %+v, want %+v", i, j, got[j], want[i][j])
			}
		}
	}
}

// TestRoutesStuckBasePinsOneChunk: a base whose window never closes keeps
// its own route chunk, and only that one. Its base carries the run's
// newest event time, so the watermark stays a lateness behind it while
// every later request's window closes; after ten chunks' worth of
// answered requests the ring holds the stuck chunk, the chunk the last
// round filled, and the one it started.
func TestRoutesStuckBasePinsOneChunk(t *testing.T) {
	cfg := Config{
		Engine: engine.Config{
			Joiners: 1,
			Mode:    engine.OnWatermark,
			Window:  window.Spec{Pre: 1000, Fol: 0, Lateness: 1000},
			Agg:     agg.Sum,
		},
	}
	s, addr := startServer(t, cfg)
	stuck, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	stuck.SendBase(1, 1<<40, 0)
	stuck.Flush()
	waitUntil(t, "the stuck base registered", func() bool { return s.o.bases.Load() == 1 })

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rounds = 12
	for r := 0; r < rounds; r++ {
		for i := 0; i < routeChunkLen; i++ {
			c.SendBase(2, tuple.Time(r*routeChunkLen+i), 0)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		rs, err := c.RecvResults(10 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(rs) != routeChunkLen {
			t.Fatalf("round %d: %d answers, want %d", r, len(rs), routeChunkLen)
		}
	}
	if n := mappedChunks(s); n > 3 {
		t.Fatalf("%d route chunks live after %d answered chunks, want at most 3", n, rounds)
	}
	if p := s.Statusz().PendingRequests; p != 1 {
		t.Fatalf("pending_requests = %d, want 1 (the stuck base)", p)
	}
	if g := pendingGauge(t, s); g != 1 {
		t.Fatalf("oij_pending_requests = %d, want 1", g)
	}
}

// TestRoutesClosedSessionDrains: a session that closes with requests in
// flight has their answers dropped when they come, not delivered to a
// later session, even once their chunks are reused for later sessions'
// routes, and the pending count returns to 0. Each round, a long-lived
// session sends requests, another session sends its own under other keys
// and leaves before they are answered, and the long-lived session then
// sends the probe that answers both.
func TestRoutesClosedSessionDrains(t *testing.T) {
	cfg := Config{
		Engine: engine.Config{
			Joiners: 2,
			Mode:    engine.OnWatermark,
			Window:  window.Spec{Pre: 1000, Fol: 0, Lateness: 100_000},
			Agg:     agg.Sum,
		},
	}
	s, addr := startServer(t, cfg)
	sessionCount := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.sessions)
	}
	live, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	waitUntil(t, "the live session", func() bool { return sessionCount() == 1 })

	const rounds, goneBases, liveBases = 6, 700, 300
	registered := int64(0)
	for r := 0; r < rounds; r++ {
		ts0 := tuple.Time(1_000_000 * (r + 1))
		// The live session's requests come first: a chunk that straddles
		// two rounds holds some of them next to the last round's.
		live.SendProbe(1, ts0, 1)
		for i := 0; i < liveBases; i++ {
			live.SendBase(1, ts0+tuple.Time(i), 0)
		}
		live.Flush()
		registered += liveBases
		waitUntil(t, "the live session's requests registered", func() bool { return s.o.bases.Load() == registered })

		gone, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < goneBases; i++ {
			gone.SendBase(tuple.Key(100+r), ts0+tuple.Time(i), 0)
		}
		gone.Flush()
		registered += goneBases
		waitUntil(t, "the closing session's requests registered", func() bool { return s.o.bases.Load() == registered })
		gone.Close()
		waitUntil(t, "the closing session gone", func() bool { return sessionCount() == 1 })

		// Far past both sessions' requests: its watermark answers them all.
		live.SendProbe(2, ts0+500_000, 0)
		if err := live.Barrier(); err != nil {
			t.Fatal(err)
		}
		rs, err := live.RecvResults(10 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(rs) != liveBases {
			t.Fatalf("round %d: live session got %d answers, want %d", r, len(rs), liveBases)
		}
		for i, res := range rs {
			if res.Seq != uint64(r*liveBases+i) || res.Key != 1 || res.Matches != 1 || res.Agg != 1 {
				t.Fatalf("round %d answer %d: %+v", r, i, res)
			}
		}
		waitUntil(t, "the closed session's answers", func() bool {
			return s.o.results.Total() == registered && routedPending(s) == 0
		})
		if p := s.Statusz().PendingRequests; p != 0 {
			t.Fatalf("round %d: pending_requests = %d, want 0", r, p)
		}
	}
}

// TestRoutesPendingCount: with the pipeline wedged behind a client that
// never reads (TestBatchQueueDepthCountsTuples' setup), oij_pending_requests
// on /metrics and pending_requests on /statusz both equal the routes the
// ring holds unanswered, and both are 0 once the client reads every
// answer and its barrier's ack.
func TestRoutesPendingCount(t *testing.T) {
	cfg := tinyCfg(AdmissionBlock, time.Hour)
	cfg.ingestBuffer = 64
	s, pl := startPipeServer(t, cfg)
	slow := pl.dial(t)
	defer slow.Close()
	const n = 32
	go func() {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for i := 0; i < n; i++ {
			w.WriteBaseID(wire.Tuple{Base: true, TS: int64(1000 + i), ID: uint64(i)})
		}
		w.WriteFlush()
		w.Flush()
		slow.Write(buf.Bytes())
	}()
	waitUntil(t, "the pipeline to wedge", func() bool { return len(s.eng.Stalls().Wedged(time.Nanosecond)) > 0 })
	var routed int64
	var gauge, status int
	deadline := time.Now().Add(10 * time.Second)
	for {
		routed, gauge, status = routedPending(s), pendingGauge(t, s), s.Statusz().PendingRequests
		if routed > 0 && int64(gauge) == routed && int64(status) == routed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged: ring holds %d unanswered, oij_pending_requests = %d, pending_requests = %d", routed, gauge, status)
		}
		time.Sleep(time.Millisecond)
	}

	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := wire.NewReader(slow)
	for results := 0; ; {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("after %d answers: %v", results, err)
		}
		if m.Kind == wire.TagFlush {
			if results != n {
				t.Fatalf("barrier acked after %d answers, want %d", results, n)
			}
			break
		}
		results++
	}
	if g, st, rp := pendingGauge(t, s), s.Statusz().PendingRequests, routedPending(s); g != 0 || st != 0 || rp != 0 {
		t.Fatalf("after the barrier: oij_pending_requests = %d, pending_requests = %d, ring holds %d unanswered", g, st, rp)
	}
}

// TestRoutesSteadyStateAllocatesNothing: with a steady number of requests
// in flight, registering and answering them allocates nothing once the
// ring holds the chunks that window spans: each answered chunk is
// unmapped and reused, and each request finds its own route.
func TestRoutesSteadyStateAllocatesNothing(t *testing.T) {
	var rt routeRing
	const inFlight = 3000
	for i := 0; i < inFlight; i++ {
		rt.add(pendingBase{localSeq: uint64(i)})
	}
	bad := false
	step := func() {
		seq := rt.add(pendingBase{localSeq: rt.next})
		if p := rt.take(seq - inFlight); p.localSeq != seq-inFlight {
			bad = true
		}
	}
	for i := 0; i < 4*routeChunkLen; i++ {
		step()
	}
	const window = 16 * routeChunkLen
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < window; i++ {
			step()
		}
	}); a != 0 {
		t.Fatalf("%v allocations for %d answered requests in steady state, want 0", a, window)
	}
	if bad {
		t.Fatal("a request's route was not the one registered for it")
	}
	if n, most := len(rt.mapped), inFlight/routeChunkLen+2; n > most {
		t.Fatalf("%d chunks mapped for %d requests in flight, want at most %d", n, inFlight, most)
	}
}

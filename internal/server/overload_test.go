package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/window"
	"oij/internal/wire"
)

func TestAdmissionValidation(t *testing.T) {
	cfg := baseCfg()
	cfg.Admission = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus admission policy accepted")
	}
	for _, p := range []string{AdmissionBlock, AdmissionShedProbes, AdmissionReject} {
		cfg.Admission = p
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("policy %q rejected: %v", p, err)
		}
		s.Shutdown()
	}
}

// pipeListener serves in-memory net.Pipe connections. Pipes are unbuffered
// — a peer that stops reading blocks the server's very next write — so
// slow-consumer scenarios are deterministic, with no TCP socket buffers to
// fill first.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	c1, c2 := net.Pipe()
	select {
	case l.conns <- c2:
		return c1
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop not accepting")
		return nil
	}
}

func startPipeServer(t *testing.T, cfg Config) (*Server, *pipeListener) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPipeListener()
	if err := s.Serve(pl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s, pl
}

// tinyCfg is sized so a handful of unread results wedges the pipeline:
// one joiner, a near-empty funnel, two-slot rings, one-slot session
// buffers. A grace far longer than the test keeps delivery blocked so
// admission behavior can be observed deterministically.
func tinyCfg(admission string, grace time.Duration) Config {
	return Config{
		Admission:         admission,
		SlowConsumerGrace: grace,
		ingestBuffer:      1,
		ResultBuffer:      1,
		Engine: engine.Config{
			Joiners:  1,
			QueueCap: 2,
			Window:   window.Spec{Pre: 10_000_000, Lateness: 1000},
			Agg:      agg.Sum,
		},
	}
}

// wedge connects a client that requests answers and never reads them, then
// waits until the pipeline is saturated end to end (funnel full). The
// writes run in a goroutine because an unread pipe eventually blocks the
// sender too; closing the returned conn releases it.
func wedge(t *testing.T, s *Server, pl *pipeListener) net.Conn {
	t.Helper()
	conn := pl.dial(t)
	go func() {
		w := wire.NewWriter(conn)
		for i := 0; i < 32; i++ {
			if w.WriteTuple(wire.Tuple{Base: true, TS: int64(1000 + i)}) != nil {
				return
			}
			if w.Flush() != nil {
				return
			}
		}
	}()
	// The pipeline is wedged once the ingest goroutine's push into a joiner
	// ring has parked: the unread session has blocked a joiner in delivery,
	// the ring behind it is full, and at most one funnel slot can still be
	// claimed before admission kicks in.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stalls := s.eng.Stalls()
		blocked := false
		for _, d := range stalls.BlockedFor {
			blocked = blocked || d > 0
		}
		if blocked {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never wedged")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRejectPolicyNacks: with the pipeline wedged by a slow consumer, a
// second client's requests are answered with overload NACKs instead of
// queueing, and the transitions are counted.
func TestRejectPolicyNacks(t *testing.T) {
	s, pl := startPipeServer(t, tinyCfg(AdmissionReject, time.Hour))
	slow := wedge(t, s, pl)
	defer slow.Close()

	conn := pl.dial(t)
	defer conn.Close()
	w, r := wire.NewWriter(conn), wire.NewReader(conn)
	// The funnel may still have one free slot when the ingest goroutine is
	// parked mid-push; the first base can claim it (and then waits forever
	// behind the wedge), but the next ones must be NACKed.
	for i := 0; i < 3; i++ {
		if err := w.WriteTuple(wire.Tuple{Base: true, TS: int64(2000 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := r.Read()
	if err != nil {
		t.Fatalf("no NACK under reject policy with a wedged pipeline: %v", err)
	}
	if m.Kind != wire.TagNack || m.Nack.Code != wire.NackOverload {
		t.Fatalf("got frame %+v, want overload NACK", m)
	}
	st := s.Statusz()
	if st.Overload.Rejected < 1 {
		t.Fatalf("rejected counter = %d", st.Overload.Rejected)
	}
	if st.Overload.Admission != AdmissionReject {
		t.Fatalf("statusz admission = %q", st.Overload.Admission)
	}
	slow.Close() // unwedge so Shutdown (via cleanup) is quick
}

// TestShedProbesPolicy: with the pipeline wedged, probes are dropped and
// counted instead of blocking the reader.
func TestShedProbesPolicy(t *testing.T) {
	s, pl := startPipeServer(t, tinyCfg(AdmissionShedProbes, time.Hour))
	slow := wedge(t, s, pl)
	defer slow.Close()

	conn := pl.dial(t)
	defer conn.Close()
	w := wire.NewWriter(conn)
	for i := 0; i < 8; i++ {
		if err := w.WriteTuple(wire.Tuple{TS: int64(3000 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Statusz().Overload.ShedProbes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no probes shed under shed-probes policy")
		}
		time.Sleep(time.Millisecond)
	}
	slow.Close()
}

// TestRequestDeadlineNack: a deadline so tight every request goes stale in
// the funnel means every request is NACKed with the deadline code — and a
// flush barrier still acks, because a NACKed request is not outstanding.
func TestRequestDeadlineNack(t *testing.T) {
	cfg := baseCfg()
	cfg.RequestDeadline = time.Nanosecond
	s, addr := startServer(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seq, _ := c.SendBase(7, 1000, 0)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	sawNack := false
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == wire.TagNack {
			if m.Nack.Seq != seq || m.Nack.Code != wire.NackDeadline {
				t.Fatalf("nack = %+v want seq %d deadline", m.Nack, seq)
			}
			sawNack = true
			continue
		}
		if m.Kind == wire.TagFlush {
			break
		}
		t.Fatalf("unexpected frame kind %d", m.Kind)
	}
	if !sawNack {
		t.Fatal("request not NACKed under 1ns deadline")
	}
	if got := s.Statusz().Overload.DeadlineRejected; got < 1 {
		t.Fatalf("deadline counter = %d", got)
	}
}

// TestSlowReaderEviction (satellite): a client that stops draining Recv
// must not stall other sessions' results or Shutdown — after the grace
// period the slow session is evicted and counted while a healthy client
// keeps getting answers.
func TestSlowReaderEviction(t *testing.T) {
	cfg := baseCfg()
	cfg.ResultBuffer = 1
	cfg.SlowConsumerGrace = 200 * time.Millisecond
	s, pl := startPipeServer(t, cfg)

	slow := pl.dial(t)
	defer slow.Close()
	go func() {
		sw := wire.NewWriter(slow)
		for i := 0; i < 16; i++ {
			if sw.WriteTuple(wire.Tuple{Base: true, TS: int64(1000 + i)}) != nil {
				return
			}
			if sw.Flush() != nil {
				return
			}
		}
	}()
	// Never read: the session's one-slot buffer fills and delivery stalls.

	// A healthy client must keep round-tripping while the slow one decays.
	fast := NewClient(pl.dial(t))
	defer fast.Close()
	evictDeadline := time.Now().Add(10 * time.Second)
	for {
		fast.SendProbe(9, 5000, 2)
		fast.SendBase(9, 6000, 0)
		if err := fast.Barrier(); err != nil {
			t.Fatal(err)
		}
		rs, err := fast.RecvResults(5 * time.Second)
		if err != nil {
			t.Fatalf("healthy client starved: %v", err)
		}
		if len(rs) != 1 {
			t.Fatalf("healthy client got %d results", len(rs))
		}
		if s.Statusz().Overload.SlowSessionsEvicted >= 1 {
			break
		}
		if time.Now().After(evictDeadline) {
			t.Fatal("slow session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Shutdown must complete promptly despite the (now evicted) slow session.
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown stalled by slow reader")
	}
}

// TestMemoryGuard: buffered probe state is capped; once requests advance
// the watermark and eviction reclaims the old window, fresh probes are
// admitted again (shedding stops — the degradation is reversible).
func TestMemoryGuard(t *testing.T) {
	cfg := Config{
		MemCapProbes: 64,
		Engine: engine.Config{
			Joiners: 1,
			Window:  window.Spec{Pre: 1000, Lateness: 10},
			Agg:     agg.Sum,
		},
	}
	s, addr := startServer(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Flood far past the cap within one window.
	for i := 0; i < 256; i++ {
		c.SendProbe(1, int64(1000+i), 1)
	}
	c.SendBase(1, 1500, 0)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvResults(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Statusz()
	if st.Overload.MemShedProbes == 0 {
		t.Fatalf("memory guard never shed: %+v", st.Overload)
	}
	if st.Overload.BufferedProbes > 64+1 {
		t.Fatalf("buffered probes %d exceed cap", st.Overload.BufferedProbes)
	}

	// Advance event time far beyond the retention horizon via a request
	// (requests are never shed, so they always advance the watermark),
	// wait for eviction to reclaim the window, then verify fresh probes
	// are admitted again.
	shedBefore := st.Overload.MemShedProbes
	c.SendBase(1, 1_000_000, 0)
	c.Barrier()
	if _, err := c.RecvResults(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		probesBefore := s.Statusz().Probes
		c.SendProbe(1, 1_000_100, 1)
		c.Flush()
		time.Sleep(20 * time.Millisecond)
		st = s.Statusz()
		if st.Probes > probesBefore {
			break // admitted: guard recovered
		}
		if time.Now().After(deadline) {
			t.Fatalf("memory guard never recovered: %+v", st.Overload)
		}
	}
	_ = shedBefore
}

// TestSessionLocalSeqWithNacks: NACKed requests consume session-local
// sequence numbers, so the sequences of later accepted requests still
// match what the client assigned.
func TestSessionLocalSeqWithNacks(t *testing.T) {
	cfg := baseCfg()
	cfg.RequestDeadline = time.Nanosecond
	_, addr := startServer(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, _ := c.SendBase(1, int64(1000+i), 0)
		seqs = append(seqs, seq)
	}
	c.Barrier()
	got := map[uint64]bool{}
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == wire.TagFlush {
			break
		}
		if m.Kind != wire.TagNack {
			t.Fatalf("expected NACKs only, got kind %d", m.Kind)
		}
		got[m.Nack.Seq] = true
	}
	for _, want := range seqs {
		if !got[want] {
			t.Fatalf("seq %d not NACKed (got %v)", want, got)
		}
	}
}

// TestConcurrentSlowAndFastSessions runs several healthy sessions against
// several wedged ones under -race: results must keep flowing, evictions
// must happen, and shutdown must stay clean.
func TestConcurrentSlowAndFastSessions(t *testing.T) {
	cfg := baseCfg()
	cfg.ResultBuffer = 1
	cfg.SlowConsumerGrace = 100 * time.Millisecond
	s, pl := startPipeServer(t, cfg)

	for i := 0; i < 3; i++ {
		conn := pl.dial(t)
		defer conn.Close()
		go func() {
			w := wire.NewWriter(conn)
			for k := 0; k < 8; k++ {
				if w.WriteTuple(wire.Tuple{Base: true, TS: int64(1000 + k)}) != nil {
					return
				}
				if w.Flush() != nil {
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		c := NewClient(pl.dial(t))
		wg.Add(1)
		go func(id int, c *Client) {
			defer wg.Done()
			defer c.Close()
			for r := 0; r < 20; r++ {
				c.SendProbe(uint64(id), int64(2000+r), 1)
				c.SendBase(uint64(id), int64(2001+r), 0)
				if err := c.Barrier(); err != nil {
					errs <- err
					return
				}
				if _, err := c.RecvResults(10 * time.Second); err != nil {
					errs <- err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Statusz().Overload.SlowSessionsEvicted < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("evictions = %d, want 3", s.Statusz().Overload.SlowSessionsEvicted)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

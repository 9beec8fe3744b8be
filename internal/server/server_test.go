package server

import (
	"net"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/window"
	"oij/internal/wire"
)

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s, addr.String()
}

func baseCfg() Config {
	return Config{
		Engine: engine.Config{
			Joiners: 2,
			Window:  window.Spec{Pre: 10_000_000, Fol: 0, Lateness: 1000},
			Agg:     agg.Sum,
		},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty window accepted")
	}
	cfg := baseCfg()
	cfg.Algorithm = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	cfg = baseCfg()
	cfg.SlowConsumerGrace = -time.Second
	if _, err := New(cfg); err == nil {
		t.Fatal("negative slow-consumer grace accepted")
	}
	cfg = baseCfg()
	cfg.ReplLease = -time.Second
	if _, err := New(cfg); err == nil {
		t.Fatal("negative replication lease accepted")
	}
}

func TestSingleClientRoundTrip(t *testing.T) {
	_, addr := startServer(t, baseCfg())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SendProbe(7, 1000, 10)
	c.SendProbe(7, 2000, 20)
	c.SendProbe(8, 2000, 999) // other key
	seq, _ := c.SendBase(7, 3000, 0)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	rs, err := c.RecvResults(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d results", len(rs))
	}
	r := rs[0]
	if r.Seq != seq || r.Key != 7 || r.Agg != 30 || r.Matches != 2 {
		t.Fatalf("result %+v", r)
	}
}

func TestSharedStateAcrossClients(t *testing.T) {
	srv, addr := startServer(t, baseCfg())

	producer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	consumer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	// One client streams data...
	for i := 0; i < 10; i++ {
		producer.SendProbe(42, 1000+int64(i), 1)
	}
	producer.Flush()
	// ...the producer barriers so the server has ingested everything...
	if err := producer.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := producer.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// ...and another client's request sees it.
	consumer.SendBase(42, 2000, 0)
	consumer.Barrier()
	rs, err := consumer.RecvResults(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Matches != 10 {
		t.Fatalf("cross-client visibility broken: %+v", rs)
	}
	if srv.Served() < 11 {
		t.Fatalf("served = %d", srv.Served())
	}
}

func TestSessionLocalSequences(t *testing.T) {
	_, addr := startServer(t, baseCfg())
	a, _ := Dial(addr)
	defer a.Close()
	b, _ := Dial(addr)
	defer b.Close()

	// Both clients' sequences start at 0 independently.
	sa, _ := a.SendBase(1, 1000, 0)
	sb, _ := b.SendBase(1, 1000, 0)
	if sa != 0 || sb != 0 {
		t.Fatalf("local seqs: a=%d b=%d", sa, sb)
	}
	a.Barrier()
	b.Barrier()
	ra, err := a.RecvResults(5 * time.Second)
	if err != nil || len(ra) != 1 || ra[0].Seq != 0 {
		t.Fatalf("client a: %+v %v", ra, err)
	}
	rb, err := b.RecvResults(5 * time.Second)
	if err != nil || len(rb) != 1 || rb[0].Seq != 0 {
		t.Fatalf("client b: %+v %v", rb, err)
	}
}

func TestManyRequests(t *testing.T) {
	_, addr := startServer(t, baseCfg())
	c, _ := Dial(addr)
	defer c.Close()

	const n = 2000
	for i := 0; i < n; i++ {
		c.SendProbe(uint64(i%5), int64(1000+i), 1)
		if i%4 == 0 {
			c.SendBase(uint64(i%5), int64(1000+i), 0)
		}
	}
	c.Barrier()
	rs, err := c.RecvResults(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n/4 {
		t.Fatalf("got %d results, want %d", len(rs), n/4)
	}
	seen := map[uint64]bool{}
	for _, r := range rs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestMalformedFrameClosesSession(t *testing.T) {
	_, addr := startServer(t, baseCfg())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A result frame from a client is a protocol violation.
	w := wire.NewWriter(conn)
	w.WriteResult(wire.Result{})
	w.Flush()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.NewReader(conn).Read()
	if err != nil {
		t.Fatalf("expected an error frame before close, got %v", err)
	}
	if m.Kind != wire.TagError {
		t.Fatalf("expected error frame, got kind %d", m.Kind)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s, _ := startServer(t, baseCfg())
	s.Shutdown()
	s.Shutdown() // second call must be a no-op
}

func TestWatermarkModeServing(t *testing.T) {
	cfg := baseCfg()
	cfg.Algorithm = harness.ScaleOIJ
	cfg.Engine.Mode = engine.OnWatermark
	cfg.Engine.Window = window.Spec{Pre: 1000, Fol: 0, Lateness: 100}
	_, addr := startServer(t, cfg)
	c, _ := Dial(addr)
	defer c.Close()

	c.SendBase(5, 1000, 0)
	c.SendProbe(5, 950, 3) // late probe, still in window
	// Advance event time so the watermark closes the request's window.
	c.SendProbe(5, 5000, 1)
	c.Barrier()
	rs, err := c.RecvResults(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Matches != 1 || rs[0].Agg != 3 {
		t.Fatalf("watermark serving: %+v", rs)
	}
}

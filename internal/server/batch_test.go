package server

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/faultfs"
	"oij/internal/harness"
	"oij/internal/refjoin"
	"oij/internal/tuple"
	"oij/internal/window"
	"oij/internal/wire"
)

// batchFrames is a seeded client stream: probes, bases and flush barriers
// in non-decreasing event time, with integer values so every sum is exact
// in any order. It returns the encoded stream, each frame's bytes, the
// tuples in arrival order (bases numbered by their session-local
// sequence), and for each flush the number of bases sent before it.
func batchFrames(seed int64, n int) (stream []byte, frames [][]byte, tuples []tuple.Tuple, flushes []int) {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	ts, bases, end := int64(1000), 0, 0
	emit := func() {
		w.Flush()
		frames = append(frames, append([]byte(nil), buf.Bytes()[end:]...))
		end = buf.Len()
	}
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(4))
		key := tuple.Key(rng.Intn(8))
		val := float64(rng.Intn(100))
		switch r := rng.Intn(100); {
		case r < 4 || i == n-1:
			w.WriteFlush()
			flushes = append(flushes, bases)
		case r < 30:
			w.WriteTuple(wire.Tuple{Base: true, TS: ts, Key: key, Val: val})
			tuples = append(tuples, tuple.Tuple{TS: ts, Key: key, Val: val, Side: tuple.Base, Seq: uint64(bases)})
			bases++
		default:
			w.WriteTuple(wire.Tuple{TS: ts, Key: key, Val: val})
			tuples = append(tuples, tuple.Tuple{TS: ts, Key: key, Val: val, Side: tuple.Probe})
		}
		emit()
	}
	return buf.Bytes(), frames, tuples, flushes
}

// runBatchStream serves one fresh Key-OIJ server with one joiner, writes
// the stream in the given chunks, and returns the result frames in the
// order they arrived, encoded. It fails the test if any flush ack arrives
// before every answer to a base sent ahead of that flush.
func runBatchStream(t *testing.T, cfg Config, chunks [][]byte, flushes []int) []byte {
	t.Helper()
	_, addr := startServer(t, cfg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		for _, c := range chunks {
			if _, err := conn.Write(c); err != nil {
				return
			}
		}
	}()
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	r := wire.NewReader(conn)
	var out bytes.Buffer
	w := wire.NewWriter(&out)
	results, acks := 0, 0
	for acks < len(flushes) {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("after %d results and %d flush acks: %v", results, acks, err)
		}
		switch m.Kind {
		case wire.TagResult:
			w.WriteResult(m.Result)
			results++
		case wire.TagFlush:
			if results < flushes[acks] {
				t.Fatalf("flush %d acked after %d answers, want at least %d", acks, results, flushes[acks])
			}
			acks++
		default:
			t.Fatalf("unexpected frame %+v", m)
		}
	}
	w.Flush()
	return out.Bytes()
}

// TestBatchBoundariesKeepAnswers: the session reader hands the funnel one
// batch per socket read, so where the reads split the stream must not
// change any answer. The same seeded stream, sent as one write and as one
// write per frame, gets byte-identical answers equal to the arrival-time
// oracle, and every flush (several fall mid-batch) is acked only after
// every answer it covers.
func TestBatchBoundariesKeepAnswers(t *testing.T) {
	cfg := Config{
		Algorithm: harness.KeyOIJ,
		Engine: engine.Config{
			Joiners: 1,
			Window:  window.Spec{Pre: 40, Fol: 5, Lateness: 1000},
			Agg:     agg.Sum,
		},
	}
	stream, frames, tuples, flushes := batchFrames(7, 3000)
	whole := runBatchStream(t, cfg, [][]byte{stream}, flushes)
	perFrame := runBatchStream(t, cfg, frames, flushes)
	if !bytes.Equal(whole, perFrame) {
		t.Fatalf("answers differ between one write (%d B) and one write per frame (%d B)", len(whole), len(perFrame))
	}

	var want bytes.Buffer
	w := wire.NewWriter(&want)
	for _, r := range refjoin.Arrival(tuples, cfg.Engine.Window, cfg.Engine.Agg) {
		w.WriteResult(wire.Result{Seq: r.BaseSeq, TS: r.BaseTS, Key: r.Key, Agg: r.Agg, Matches: r.Matches})
	}
	w.Flush()
	if !bytes.Equal(whole, want.Bytes()) {
		t.Fatalf("answers differ from refjoin.Arrival: got %d B, want %d B", len(whole), want.Len())
	}
	if want.Len() == 0 {
		t.Fatal("stream produced no answers")
	}
}

// TestBatchQueueDepthCountsTuples: the funnel moves batches but counts
// tuples. With the ingest loop wedged behind a client that never reads,
// every probe a second client sends is one unit of oij_ingest_queue_depth
// and /statusz ingest_queue_depth, up to a full funnel.
func TestBatchQueueDepthCountsTuples(t *testing.T) {
	cfg := tinyCfg(AdmissionBlock, time.Hour)
	cfg.ingestBuffer = 64
	s, pl := startPipeServer(t, cfg)
	// The slow client's requests are baseid frames of wire.MaxClientFrame
	// bytes in one write, so they reach the funnel as one batch and the
	// ingest loop takes all of them before it wedges: the funnel is empty
	// once the wedge holds.
	slow := pl.dial(t)
	defer slow.Close()
	go func() {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for i := 0; i < 32; i++ {
			w.WriteBaseID(wire.Tuple{Base: true, TS: int64(1000 + i), ID: uint64(i)})
		}
		w.Flush()
		slow.Write(buf.Bytes())
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.eng.Stalls().Wedged(time.Nanosecond)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never wedged")
		}
		time.Sleep(time.Millisecond)
	}

	gauge := func() float64 {
		var b strings.Builder
		writeMetrics(&b, s)
		return metricValue(t, b.String(), "oij_ingest_queue_depth")
	}
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.funnel.Len() != want {
			if time.Now().After(deadline) {
				t.Fatalf("funnel holds %d requests, want %d", s.funnel.Len(), want)
			}
			time.Sleep(time.Millisecond)
		}
		if g := gauge(); g != float64(want) {
			t.Fatalf("oij_ingest_queue_depth = %v, want %d", g, want)
		}
		if d := s.Statusz().IngestQueueDepth; d != want {
			t.Fatalf("statusz ingest_queue_depth = %d, want %d", d, want)
		}
	}
	waitDepth(0)

	conn := pl.dial(t)
	defer conn.Close()
	send := func(n int) {
		go func() {
			var buf bytes.Buffer
			w := wire.NewWriter(&buf)
			for i := 0; i < n; i++ {
				w.WriteTuple(wire.Tuple{TS: int64(5000 + i), Key: tuple.Key(i)})
			}
			w.Flush()
			conn.Write(buf.Bytes())
		}()
	}
	// 20 probes written at once arrive in one or two batches; the depth
	// must still grow by 20.
	send(20)
	waitDepth(20)
	send(cfg.ingestBuffer)
	waitDepth(cfg.ingestBuffer)
	slow.Close()
}

// TestBatchManySessionsOneWatermark: one watermark finalizes every
// pending request of many concurrent sessions in a single joiner batch,
// whose results interleave across sessions. Each session must get
// exactly its own answers, in order, and its flush ack after them.
func TestBatchManySessionsOneWatermark(t *testing.T) {
	const sessions, perSession = 48, 40
	cfg := Config{
		Algorithm: harness.ScaleOIJ,
		Engine: engine.Config{
			Joiners: 1,
			Mode:    engine.OnWatermark,
			// Lateness far past the sessions' event times holds every
			// answer until the closing probe below.
			Window: window.Spec{Pre: 1000, Fol: 0, Lateness: 100_000},
			Agg:    agg.Sum,
		},
	}
	s, addr := startServer(t, cfg)
	clients := make([]*Client, sessions)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	errs := make(chan error, sessions)
	for i, c := range clients {
		go func(i int, c *Client) {
			key := tuple.Key(i)
			c.SendProbe(key, 1000, float64(i+1))
			for j := 0; j < perSession; j++ {
				c.SendBase(key, tuple.Time(1500+j), 0)
			}
			errs <- c.Barrier()
		}(i, c)
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.o.bases.Load() != sessions*perSession {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d bases, want %d", s.o.bases.Load(), sessions*perSession)
		}
		time.Sleep(time.Millisecond)
	}
	closer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	closer.SendProbe(tuple.Key(sessions), 10_000_000, 0)
	closer.Flush()

	for i, c := range clients {
		rs, err := c.RecvResults(10 * time.Second)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if len(rs) != perSession {
			t.Fatalf("session %d: %d answers, want %d", i, len(rs), perSession)
		}
		for j, r := range rs {
			if r.Seq != uint64(j) || r.Key != tuple.Key(i) || r.Matches != 1 || r.Agg != float64(i+1) {
				t.Fatalf("session %d answer %d: %+v", i, j, r)
			}
		}
	}
}

// syncCountFS counts the fsyncs of every file the WAL opens.
type syncCountFS struct {
	faultfs.FS
	syncs atomic.Int64
}

func (f *syncCountFS) OpenAppend(name string) (faultfs.File, int64, error) {
	h, n, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, n, err
	}
	return syncCountFile{h, &f.syncs}, n, nil
}

type syncCountFile struct {
	faultfs.File
	syncs *atomic.Int64
}

func (f syncCountFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestBatchWALFsyncUnderSaturation: in the "interval" sync mode the WAL
// fsyncs on the ingest loop's heartbeat ticker, and that cadence must hold
// while the funnel never empties, so a power loss during sustained
// overload still costs at most a heartbeat of probes. The funnel is deep
// and filled before the ingest loop starts, and producers keep topping it
// up, so the loop is never idle for the whole measured window.
func TestBatchWALFsyncUnderSaturation(t *testing.T) {
	fs := &syncCountFS{FS: faultfs.NewMem()}
	cfg := baseCfg()
	cfg.WALPath = "wal"
	cfg.WALFS = fs
	cfg.WALSync = "interval"
	cfg.ingestBuffer = 1 << 16
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	probes := func(p int, ts *int64, run []ingestReq) []ingestReq {
		for i := range run {
			run[i] = ingestReq{t: wire.Tuple{TS: *ts, Key: tuple.Key(p), Val: 1}}
			*ts++
		}
		return run
	}
	ts0 := int64(1)
	if n, _ := s.funnel.Put(probes(0, &ts0, make([]ingestReq, cfg.ingestBuffer))); n != cfg.ingestBuffer {
		t.Fatalf("prefilled %d of %d", n, cfg.ingestBuffer)
	}
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 1; p <= 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ts, run := int64(1), make([]ingestReq, 1024)
			for s.funnel.PutAll(probes(p, &ts, run), stop) == len(run) {
			}
		}(p)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	before := fs.syncs.Load()
	time.Sleep(300 * time.Millisecond)
	got := fs.syncs.Load() - before
	if s.funnel.Len() == 0 {
		t.Fatal("the funnel emptied: the ingest loop was not saturated")
	}
	// The ticker beats every 2 ms; a tenth of that cadence leaves margin
	// for a loaded (or race-instrumented) test machine.
	if got < 15 {
		t.Fatalf("%d WAL fsyncs in 300 ms of saturated ingest, want at least 15", got)
	}
}

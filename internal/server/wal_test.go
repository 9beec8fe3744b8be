package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oij/internal/faultfs"
	"oij/internal/tuple"
	"oij/internal/wal"
	"oij/internal/wire"
)

// The log itself (format, sanitize, rotation, slots, feed) is tested in
// internal/wal; these tests drive it through the server: Recover, the
// config knobs and the operator-facing counters.

func walCfg(t *testing.T) (Config, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := baseCfg()
	cfg.WALPath = filepath.Join(dir, "wal")
	return cfg, cfg.WALPath
}

// TestWALRecovery: state streamed into one server instance survives into a
// fresh instance recovering from the same log.
func TestWALRecovery(t *testing.T) {
	cfg, path := walCfg(t)

	// First life: stream some orders and stop.
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := Dial(addr.String())
	for i := 0; i < 50; i++ {
		c1.SendProbe(9, int64(1000+i), 2)
	}
	c1.Barrier()
	if _, err := c1.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	s1.Shutdown()
	if s1.WALErrors() != 0 {
		t.Fatalf("wal errors: %d", s1.WALErrors())
	}

	// Second life: recover and query.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("recovered %d probes, want 50", n)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	c2, _ := Dial(addr2.String())
	defer c2.Close()
	c2.SendBase(9, 2000, 0)
	c2.Barrier()
	rs, err := c2.RecvResults(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Matches != 50 || rs[0].Agg != 100 {
		t.Fatalf("recovered state wrong: %+v", rs)
	}
	_ = path
}

// TestWALTornTail: a crash mid-frame leaves a truncated record, which
// recovery must tolerate, keeping everything before it.
func TestWALTornTail(t *testing.T) {
	cfg, path := walCfg(t)
	// Write 10 intact frames plus a torn one, by hand.
	b := []byte(wire.WALMagicV2)
	var frame [wire.WALFrameBytes]byte
	for i := 0; i < 10; i++ {
		wire.EncodeWALFrame(frame[:], wire.Tuple{TS: int64(i), Key: 1, Val: 1})
		b = append(b, frame[:]...)
	}
	b = append(b, wire.TagProbe, 0x01, 0x02) // torn frame
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Recover()
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if n != 10 {
		t.Fatalf("recovered %d, want 10", n)
	}
	s.Shutdown()
}

// TestWALRotation: tiny segments rotate and at most two exist; recovery
// still sees the live horizon.
func TestWALRotation(t *testing.T) {
	cfg, path := walCfg(t)
	cfg.WALSegmentBytes = 10 * wire.WALFrameBytes
	cfg.Engine.Window.Pre = 100 // tiny horizon so rotation can discard
	cfg.Engine.Window.Lateness = 10

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(addr.String())
	for i := 0; i < 500; i++ {
		c.SendProbe(1, int64(i*10), 1)
	}
	c.Barrier()
	if _, err := c.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	s.Shutdown()

	cur, err := os.Stat(path)
	if err != nil {
		t.Fatalf("current segment missing: %v", err)
	}
	if cur.Size() > 40*wire.WALFrameBytes {
		t.Fatalf("current segment grew to %d bytes despite rotation", cur.Size())
	}
	// Recovery over the rotated pair still works.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n >= 500 {
		t.Fatalf("recovered %d probes, want a rotated subset", n)
	}
	s2.Shutdown()
}

// TestNoWALNoop: Recover without a WAL configured is a no-op.
func TestNoWALNoop(t *testing.T) {
	s, err := New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Recover(); n != 0 || err != nil {
		t.Fatalf("no-op recover: %d, %v", n, err)
	}
	s.Shutdown()
}

// TestWALSyncModeValidation: the config knob rejects unknown values and
// reports the active mode through /statusz.
func TestWALSyncModeValidation(t *testing.T) {
	cfg, _ := walCfg(t)
	cfg.WALSync = "sometimes"
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus WALSync accepted")
	}
	cfg.WALSync = "always"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if got := s.Statusz().WALSync; got != "always" {
		t.Fatalf("statusz wal_sync = %q", got)
	}
}

// TestWALRecoveryMetricsExposed: a log with one corrupt frame and a torn
// tail recovers with the skip and truncation visible in /statusz and in
// the Prometheus scrape — the operator-facing face of crash recovery.
func TestWALRecoveryMetricsExposed(t *testing.T) {
	m := faultfs.NewMem()
	w, err := wal.Open("wal", wal.Options{FS: m, Retention: 1000, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Append(wire.Tuple{TS: tuple.Time(1000 + i), Key: 9, Val: 2})
	}
	w.Close()
	m.Corrupt("wal", int64(wire.WALHeaderBytes+3*wire.WALFrameBytes+5))
	m.Put("wal", append(m.Bytes("wal"), 0xde, 0xad, 0xbe)) // torn tail

	cfg := baseCfg()
	cfg.WALPath = "wal"
	cfg.WALFS = m
	cfg.AdminAddr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("recovered %d, want 9", n)
	}
	rec, skip, trunc := s.WALStats()
	if rec != 9 || skip != 1 || trunc != 3 {
		t.Fatalf("WALStats = (%d, %d, %d), want (9, 1, 3)", rec, skip, trunc)
	}
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	st := s.Statusz()
	if st.WALRecovered != 9 || st.WALSkipped != 1 || st.WALTruncated != 3 {
		t.Fatalf("statusz wal counters: %+v", st)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/metrics", s.AdminAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"oij_wal_recovered_frames 9",
		"oij_wal_skipped_frames 1",
		"oij_wal_truncated_bytes 3",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestWALEndToEndSecondLifeOnDisk: the full server path on the real
// filesystem — stream, kill with a torn tail, recover, query — answers
// reflect exactly the surviving frames.
func TestWALEndToEndSecondLifeOnDisk(t *testing.T) {
	cfg, path := walCfg(t)
	cfg.WALSync = "always"

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := Dial(addr.String())
	for i := 0; i < 30; i++ {
		c1.SendProbe(5, tuple.Time(1000+i), 1)
	}
	c1.Barrier()
	if _, err := c1.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	s1.Shutdown()

	// Simulated crash damage: flip a bit in one frame, tear the tail.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[wire.WALHeaderBytes+10*wire.WALFrameBytes+3] ^= 0x10
	b = append(b, 0x77)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 29 {
		t.Fatalf("recovered %d, want 29 (one corrupt frame skipped)", n)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	c2, _ := Dial(addr2.String())
	defer c2.Close()
	c2.SendBase(5, 2000, 0)
	c2.Barrier()
	rs, err := c2.RecvResults(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Matches != 29 || rs[0].Agg != 29 {
		t.Fatalf("recovered answer wrong: %+v", rs)
	}
}

package wal

import (
	"strings"
	"testing"

	"oij/internal/faultfs"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// openWriter opens the log "wal" on fsys without replication.
func openWriter(fsys faultfs.FS, maxBytes int64, retention tuple.Time, sync SyncMode) (*Writer, error) {
	return Open("wal", Options{FS: fsys, SegmentBytes: maxBytes, Retention: retention, Sync: sync})
}

// collectReplay replays a log into a slice.
func collectReplay(t *testing.T, fsys faultfs.FS, path string) ([]wire.Tuple, Stats) {
	t.Helper()
	var got []wire.Tuple
	st, err := Replay(fsys, path, func(tp wire.Tuple) { got = append(got, tp) })
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

// TestWALWritesV2Header: a fresh segment starts with the magic and frames
// carry checksums.
func TestWALWritesV2Header(t *testing.T) {
	m := faultfs.NewMem()
	w, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(wire.Tuple{TS: 1, Key: 2, Val: 3})
	w.Close()

	b := m.Bytes("wal")
	if len(b) != wire.WALHeaderBytes+wire.WALFrameBytes {
		t.Fatalf("segment size %d", len(b))
	}
	if string(b[:wire.WALHeaderBytes]) != wire.WALMagicV2 {
		t.Fatalf("header %q", b[:wire.WALHeaderBytes])
	}
	if tu, err := wire.DecodeWALFrame(b[wire.WALHeaderBytes:]); err != nil || tu.TS != 1 || tu.Key != 2 || tu.Val != 3 {
		t.Fatalf("frame %+v %v", tu, err)
	}
}

// TestWALCorruptFrameSkipped: a bit-flipped frame mid-log is skipped, the
// frames around it survive, and the skip is counted.
func TestWALCorruptFrameSkipped(t *testing.T) {
	m := faultfs.NewMem()
	w, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: float64(i)})
	}
	w.Close()
	// Flip a bit inside frame 4's value field.
	m.Corrupt("wal", int64(wire.WALHeaderBytes+4*wire.WALFrameBytes+20))

	got, st := collectReplay(t, m, "wal")
	if st.Recovered != 9 || st.Skipped != 1 || st.Truncated != 0 {
		t.Fatalf("stats %+v", st)
	}
	for _, tp := range got {
		if tp.TS == 4 {
			t.Fatal("corrupt frame replayed")
		}
	}
}

// TestWALTornTailTruncateAndContinue: after a crash leaves a torn tail,
// the next writer must cut the tail back to a frame boundary before
// appending — otherwise new frames land mid-frame (an O_APPEND open lands
// them after the torn bytes) and the second recovery loses every frame
// written after the first crash.
func TestWALTornTailTruncateAndContinue(t *testing.T) {
	m := faultfs.NewMem()
	w, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1})
	}
	w.Close()

	// Crash mid-frame: 11 bytes of a frame made it to disk.
	var torn [wire.WALFrameBytes]byte
	wire.EncodeWALFrame(torn[:], wire.Tuple{TS: 5, Key: 1, Val: 1})
	m.Put("wal", append(m.Bytes("wal"), torn[:11]...))

	// Second life: open (sanitize), append five more frames.
	w2, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if w2.sanitized != 11 {
		t.Fatalf("sanitized %d bytes, want 11", w2.sanitized)
	}
	for i := 5; i < 10; i++ {
		w2.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1})
	}
	w2.Close()

	got, st := collectReplay(t, m, "wal")
	if st.Recovered != 10 || st.Skipped != 0 {
		t.Fatalf("stats %+v (frames written after a torn tail were lost)", st)
	}
	for i, tp := range got {
		if tp.TS != tuple.Time(i) {
			t.Fatalf("frame %d has ts %d", i, tp.TS)
		}
	}
}

// TestWALGarbageSegmentReset: a current segment without the header
// salvages nothing — a torn header from a crashed creation, foreign junk,
// or a pre-checksum (v1-shaped) image of raw network frames. Each is
// reset so the writer can stamp a clean header, counted in full as cut
// bytes, recorded as a wal_salvage flight event, and takes new appends.
func TestWALGarbageSegmentReset(t *testing.T) {
	var sb strings.Builder
	enc := wire.NewWriter(&sb)
	for i := 0; i < 4; i++ {
		enc.WriteTuple(wire.Tuple{TS: tuple.Time(100 + i), Key: 3, Val: float64(i)})
	}
	enc.Flush()
	v1 := []byte(sb.String())

	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"torn_header", []byte("OIJW")},
		{"junk", []byte{0xff, 0x00, 0x13, 0x37}},
		{"v1_intact", v1},
		{"v1_torn", append(v1[:len(v1):len(v1)], wire.TagProbe, 0x01, 0x02)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := faultfs.NewMem()
			m.Put("wal", tc.img)
			fr := trace.NewFlight(0, "")
			w, err := Open("wal", Options{FS: m, Retention: 1000, Sync: SyncAlways, Flight: fr})
			if err != nil {
				t.Fatal(err)
			}
			if w.sanitized != int64(len(tc.img)) {
				t.Fatalf("sanitized %d, want %d", w.sanitized, len(tc.img))
			}
			salvaged := false
			for _, ev := range fr.Snapshot() {
				if ev.Kind == "wal_salvage" && ev.A == uint64(len(tc.img)) {
					salvaged = true
				}
			}
			if !salvaged {
				t.Fatalf("no wal_salvage(%d) flight event in %+v", len(tc.img), fr.Snapshot())
			}
			w.Append(wire.Tuple{TS: 1, Key: 1, Val: 1})
			w.Close()
			_, st := collectReplay(t, m, "wal")
			if st.Recovered != 1 || st.Truncated != 0 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestWALDiskFullRetry: a failed append keeps the frame buffered and a
// later flush persists it — a transiently full disk loses nothing.
func TestWALDiskFullRetry(t *testing.T) {
	m := faultfs.NewMem()
	w, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	m.FailAt(m.Ops() + 1) // next write fails
	if err := w.Append(wire.Tuple{TS: 1, Key: 1, Val: 1}); err == nil {
		t.Fatal("append on full disk must report an error")
	}
	// Disk clears; the buffered frame goes out with the next append.
	if err := w.Append(wire.Tuple{TS: 2, Key: 1, Val: 2}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, st := collectReplay(t, m, "wal")
	if st.Recovered != 2 || len(got) != 2 || got[0].TS != 1 || got[1].TS != 2 {
		t.Fatalf("stats %+v got %+v", st, got)
	}
}

// TestWALShortWriteRealigns: a short write (torn append) is truncated back
// to a frame boundary and the interrupted frame is rewritten whole.
func TestWALShortWriteRealigns(t *testing.T) {
	m := faultfs.NewMem()
	w, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(wire.Tuple{TS: 1, Key: 1, Val: 1})
	m.ShortWriteAt(m.Ops() + 1)
	if err := w.Append(wire.Tuple{TS: 2, Key: 1, Val: 2}); err == nil {
		t.Fatal("short write must surface")
	}
	if err := w.Append(wire.Tuple{TS: 3, Key: 1, Val: 3}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, st := collectReplay(t, m, "wal")
	if st.Recovered != 3 || st.Skipped != 0 || st.Truncated != 0 {
		t.Fatalf("stats %+v", st)
	}
	for i, tp := range got {
		if tp.TS != tuple.Time(i+1) {
			t.Fatalf("frame %d ts %d", i, tp.TS)
		}
	}
}

// TestWALFsyncAlwaysSurvivesPowerLoss: in "always" mode every append that
// returned is durable across a power kill; in "none" mode unflushed frames
// are legitimately lost. This is the contract the -wal-sync knob sells.
func TestWALFsyncAlwaysSurvivesPowerLoss(t *testing.T) {
	m := faultfs.NewMem()
	w, err := openWriter(m, 0, 1000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// No close, no flush: the process dies and the machine loses power.
	m.KillPower()
	_, st := collectReplay(t, m, "wal")
	if st.Recovered != 20 {
		t.Fatalf("fsync-on-ack lost frames: %+v", st)
	}

	m2 := faultfs.NewMem()
	w2, err := openWriter(m2, 0, 1000, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w2.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1})
	}
	w2.Heartbeat() // flushed to the OS, never fsynced
	m2.KillPower()
	if _, st := collectReplay(t, m2, "wal"); st.Recovered != 0 {
		t.Fatalf("sync=none recovered %d frames across power loss — Mem sync model broken", st.Recovered)
	}
}

// TestWALRotationKeepsZeroTimestampSegment: a previous segment whose
// newest frame is stamped 0 is still inside the retention horizon; the
// old writer used 0 as the "no previous" sentinel and deleted it.
func TestWALRotationKeepsZeroTimestampSegment(t *testing.T) {
	m := faultfs.NewMem()
	maxBytes := int64(wire.WALHeaderBytes + 4*wire.WALFrameBytes)
	w, err := openWriter(m, maxBytes, 1_000_000, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	// 12 frames all at ts=0: everything stays inside the horizon forever,
	// so nothing may ever be deleted. The first rotation is legal (no
	// previous segment); after it prevNewest == 0.
	for i := 0; i < 12; i++ {
		if err := w.Append(wire.Tuple{TS: 0, Key: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, st := collectReplay(t, m, "wal")
	if st.Recovered != 12 {
		t.Fatalf("rotation deleted live zero-timestamp frames: recovered %d of 12", st.Recovered)
	}
}

// TestWALRotationSurvivesRestart: prevNewest must be rediscovered from
// disk after a restart. The old writer forgot it, so the first rotation
// of the new process deleted a previous segment still inside the
// retention horizon.
func TestWALRotationSurvivesRestart(t *testing.T) {
	m := faultfs.NewMem()
	maxBytes := int64(wire.WALHeaderBytes + 4*wire.WALFrameBytes)
	retention := tuple.Time(1_000_000)
	w, err := openWriter(m, maxBytes, retention, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past one rotation: frames 0..7, rotation happens at frame 4
	// (no previous yet), so "wal.1" holds live frames.
	for i := 0; i < 8; i++ {
		if err := w.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if m.Bytes("wal.1") == nil {
		t.Fatal("test setup: no rotation happened")
	}

	// Restart and keep appending timestamps still within the horizon.
	w2, err := openWriter(m, maxBytes, retention, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if !w2.hasPrev {
		t.Fatal("restart forgot the previous segment")
	}
	for i := 8; i < 16; i++ {
		if err := w2.Append(wire.Tuple{TS: tuple.Time(i), Key: 1, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	_, st := collectReplay(t, m, "wal")
	if st.Recovered != 16 {
		t.Fatalf("restart rotation deleted live frames: recovered %d of 16", st.Recovered)
	}
}

// TestWALRotationBoundary: rotation at the exact retention boundary. A
// previous segment whose newest frame sits exactly window+lateness+slack
// behind the newest timestamp is still needed (eviction is strict-less),
// so rotation must keep it; one microsecond older and it may go.
func TestWALRotationBoundary(t *testing.T) {
	maxBytes := int64(wire.WALHeaderBytes + 2*wire.WALFrameBytes)
	retention := tuple.Time(100)

	run := func(newestDelta tuple.Time) (kept bool) {
		m := faultfs.NewMem()
		w, err := openWriter(m, maxBytes, retention, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		// Two frames fill the segment; rotation moves them to wal.1.
		w.Append(wire.Tuple{TS: 0, Key: 1, Val: 1})
		w.Append(wire.Tuple{TS: 10, Key: 1, Val: 1}) // prevNewest = 10
		// Two more at the probe boundary: rotation decision compares
		// prevNewest+retention against maxTS.
		w.Append(wire.Tuple{TS: 10 + retention + newestDelta, Key: 1, Val: 1})
		w.Append(wire.Tuple{TS: 10 + retention + newestDelta, Key: 1, Val: 1})
		w.Close()
		got, _ := collectReplay(t, m, "wal")
		for _, tp := range got {
			if tp.TS == 10 {
				return true // the boundary segment survived
			}
		}
		return false
	}

	if !run(0) {
		t.Fatal("segment exactly at the retention boundary was rotated away")
	}
	if run(1) {
		t.Fatal("segment past the retention boundary was kept forever")
	}
}

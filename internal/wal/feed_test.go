package wal

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"oij/internal/faultfs"
	"oij/internal/wire"
)

// Regression net for segment rotation racing an in-flight catch-up ship:
// the feed serves slots from the segment files and the tail ring while
// the writer keeps rotating.

// TestWALReplReadSegmentsAfterRotation forces catch-up reads through the
// segment files (slots below the tail ring's reach) across a rotation:
// more frames than the ring holds, one rotation, and every slot — file-
// or ring-served — must come back byte-exact.
func TestWALReplReadSegmentsAfterRotation(t *testing.T) {
	m := faultfs.NewMem()
	const frames = feedRing + 800
	w, err := Open("wal", Options{FS: m, SegmentBytes: 6000 * wire.WALFrameBytes, Retention: 100, Sync: SyncNever, Feed: true})
	if err != nil {
		t.Fatal(err)
	}
	script := crashScript(frames)
	for _, p := range script {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.flushBuf(false); err != nil {
		t.Fatal(err)
	}
	if w.feed.Oldest() != 0 || !w.hasPrev {
		t.Fatalf("want exactly one rotation keeping slot 0 (oldest %d, hasPrev %v)",
			w.feed.Oldest(), w.hasPrev)
	}
	// Slots below appended-ring are only reachable through the files —
	// including the renamed .1 segment the rotation produced.
	next := uint64(0)
	for next < frames {
		b, err := w.feed.Read(next, 512)
		if err != nil {
			t.Fatalf("slot %d: %v", next, err)
		}
		if len(b) == 0 {
			t.Fatalf("slot %d unreadable after full flush", next)
		}
		for i := 0; i < len(b)/wire.WALFrameBytes; i++ {
			var want [wire.WALFrameBytes]byte
			wire.EncodeWALFrame(want[:], script[next])
			if !bytes.Equal(b[i*wire.WALFrameBytes:(i+1)*wire.WALFrameBytes], want[:]) {
				t.Fatalf("slot %d: frame diverged across rotation", next)
			}
			next++
		}
	}
}

// TestWALReplReadRotatedPastTyped rotates a tiny-segment WAL far past the
// tail ring: slots that fell out of both the segments and the ring must
// fail with the typed ErrRotatedPast (the source drops the link and
// the standby resets, loudly), while every slot still ring- or
// file-reachable stays byte-exact.
func TestWALReplReadRotatedPastTyped(t *testing.T) {
	m := faultfs.NewMem()
	const frames = feedRing + 800
	w, err := Open("wal", Options{FS: m, SegmentBytes: 64 * wire.WALFrameBytes, Retention: 100, Sync: SyncNever, Feed: true})
	if err != nil {
		t.Fatal(err)
	}
	script := crashScript(frames)
	for _, p := range script {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	oldest := w.feed.Oldest()
	ringLow := uint64(frames - feedRing)
	if oldest <= ringLow {
		t.Fatalf("oldest %d within ring reach %d: nothing rotated past", oldest, ringLow)
	}
	// Below the ring AND below the retained segments: typed refusal.
	for _, s := range []uint64{0, ringLow / 2, ringLow - 1} {
		if _, err := w.feed.Read(s, 1); !errors.Is(err, ErrRotatedPast) {
			t.Fatalf("dropped slot %d: err = %v, want ErrRotatedPast", s, err)
		}
	}
	// In the ring (even though the segments dropped them) and above:
	// byte-exact. The ring keeps a rotation from tearing a live tail ship.
	for s := ringLow; s < frames; s += 97 {
		b, err := w.feed.Read(s, 1)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		var want [wire.WALFrameBytes]byte
		wire.EncodeWALFrame(want[:], script[s])
		if !bytes.Equal(b, want[:]) {
			t.Fatalf("slot %d: frame diverged", s)
		}
	}
}

// TestWALReplReadRotationStress races a catch-up reader against an
// / appender that rotates continuously: every frame the reader gets must be
// byte-exact for its slot, with ErrRotatedPast the only accepted
// excuse to skip ahead. Run under -race this doubles as the locking proof
// for the feed's rotation bookkeeping.
func TestWALReplReadRotationStress(t *testing.T) {
	m := faultfs.NewMem()
	w, err := Open("wal", Options{FS: m, SegmentBytes: 16 * wire.WALFrameBytes, Retention: 50, Sync: SyncNever, Feed: true})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 2000
	script := crashScript(frames)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range script {
			if err := w.Append(p); err != nil {
				return
			}
		}
		w.feed.Close()
	}()

	var checked, skipped int
	next := uint64(0)
	for {
		b, err := w.feed.Read(next, 7)
		if errors.Is(err, ErrRotatedPast) {
			old := w.feed.Oldest()
			skipped += int(old - next)
			next = old
			continue
		}
		if err != nil {
			t.Fatalf("slot %d: %v", next, err)
		}
		if len(b) == 0 {
			if !w.feed.Wait(next) && next >= w.feed.Commit() {
				break // writer done and log drained
			}
			continue
		}
		for i := 0; i < len(b)/wire.WALFrameBytes; i++ {
			var want [wire.WALFrameBytes]byte
			wire.EncodeWALFrame(want[:], script[next])
			if !bytes.Equal(b[i*wire.WALFrameBytes:(i+1)*wire.WALFrameBytes], want[:]) {
				t.Fatalf("slot %d: frame diverged under rotation", next)
			}
			next++
			checked++
		}
	}
	wg.Wait()
	if checked == 0 {
		t.Fatal("reader verified nothing")
	}
	if next != frames {
		// The reader may legitimately finish behind the end only if the
		// remaining slots rotated out after its last read.
		if next < w.feed.Oldest() {
			t.Fatalf("reader stopped at %d below oldest %d", next, w.feed.Oldest())
		}
	}
	t.Logf("verified %d frames, skipped %d rotated-out", checked, skipped)
}

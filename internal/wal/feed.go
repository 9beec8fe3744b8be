package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"oij/internal/faultfs"
	"oij/internal/wire"
)

// Replication-facing side of the log. The primary's log is the
// replication stream: every frame appended (data and epoch frames alike)
// occupies one *slot*, numbered from the first frame of the oldest
// segment on disk when the writer opened. A standby's replay position is
// a slot index, acks are slot indexes, and catch-up is "read my log from
// slot s" — there is no separate replication buffer to keep consistent
// with the log, because the log is the buffer.
//
// Feed is the hand-off point between the single writer (the ingest
// goroutine) and the replication sources (one goroutine per attached
// standby): a small ring of the most recently appended frames for
// tailing, plus the segment→slot mapping catch-up needs to read older
// frames straight from the segment files. Sources read the files without
// blocking the writer; the rotation generation tells a reader its
// snapshot went stale mid-read (the rotation renamed the file under it),
// in which case it re-resolves the segment listing and retries — holding
// a pre-rotation listing would read frames that are no longer where the
// mapping says they are.

// feedRing is the tail ring capacity in frames (~340 KB). A standby
// lagging less than this never touches the segment files.
const feedRing = 8192

// ErrRotatedPast reports a requested slot that rotation has already
// deleted; the standby must be reset to the oldest available slot.
var ErrRotatedPast = errors.New("wal: slot rotated past retention")

// Feed publishes appended frames to replication sources. Every method is
// safe for concurrent use.
type Feed struct {
	fs   faultfs.FS
	path string

	mu   sync.Mutex
	cond *sync.Cond
	// gen counts rotations: a source that resolved a slot to a segment
	// file re-checks gen after reading; a mismatch means the mapping moved.
	gen uint64
	// prevStart/curStart are the slot indexes of the first frame in
	// path.1 / path. hasPrev reports whether path.1 holds any frames.
	prevStart, curStart uint64
	hasPrev             bool
	// appended is the next slot to assign; ring holds the last
	// min(appended, feedRing) frames, slot s at (s % feedRing).
	appended uint64
	ring     []byte
	// err poisons the feed: the log dropped published frames (sustained
	// write failure overflow), so already-shipped slots may be rewritten
	// with different content. Sources must drop their standbys.
	err    error
	closed bool
}

func newFeed(fsys faultfs.FS, path string, curStart, appended uint64) *Feed {
	f := &Feed{
		fs:       fsys,
		path:     path,
		curStart: curStart,
		hasPrev:  curStart > 0,
		appended: appended,
		ring:     make([]byte, feedRing*wire.WALFrameBytes),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// publish records one appended frame (called by the writer, slot order).
func (f *Feed) publish(frame []byte) {
	f.mu.Lock()
	off := (f.appended % feedRing) * wire.WALFrameBytes
	copy(f.ring[off:], frame)
	f.appended++
	f.mu.Unlock()
	f.cond.Broadcast()
}

// rotated records a segment rotation: the old current segment (now
// path.1) starts where it did, and the fresh current segment starts at
// the rotation point.
func (f *Feed) rotated(newCurStart uint64) {
	f.mu.Lock()
	f.gen++
	f.prevStart = f.curStart
	f.curStart = newCurStart
	f.hasPrev = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// rewind retracts published-but-dropped slots and poisons the feed (see
// Writer.dropOverflow).
func (f *Feed) rewind(appended uint64, err error) {
	f.mu.Lock()
	f.appended = appended
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Commit returns the next slot to assign — the end of the log, and the
// catch-up target sent on welcome/heartbeat.
func (f *Feed) Commit() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appended
}

// Oldest returns the first slot still readable.
func (f *Feed) Oldest() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hasPrev {
		return f.prevStart
	}
	return f.curStart
}

// Close wakes every waiting source; subsequent waits return immediately.
func (f *Feed) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Wait blocks until the log has grown past slot s, the feed is poisoned,
// or the feed is closed. It returns false when the source should stop.
func (f *Feed) Wait(s uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.appended <= s && !f.closed && f.err == nil {
		f.cond.Wait()
	}
	return !f.closed && f.err == nil
}

// Read returns up to max frames starting at slot s, concatenated (each
// wire.WALFrameBytes long). A nil, nil return means slot s is not
// readable yet — the caller waits on the feed. Frames are returned
// verbatim, including checksum-failed ones: the standby's log must mirror
// the primary's. A slot rotation deleted fails with ErrRotatedPast.
//
// Only the tail ring is read under the feed lock. Older slots are read
// from the segment files with the lock released; the rotation generation
// is re-checked afterwards, and on a mismatch the segment listing is
// re-resolved and the read retried — the fix for catch-up racing a
// rotation (a stale listing maps slots to a renamed or deleted file).
func (f *Feed) Read(s uint64, max int) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		f.mu.Lock()
		if f.err != nil {
			err := f.err
			f.mu.Unlock()
			return nil, err
		}
		if s >= f.appended {
			f.mu.Unlock()
			return nil, nil
		}
		var ringLow uint64
		if f.appended > feedRing {
			ringLow = f.appended - feedRing
		}
		if s >= ringLow {
			n := int(f.appended - s)
			if n > max {
				n = max
			}
			out := make([]byte, 0, n*wire.WALFrameBytes)
			for i := 0; i < n; i++ {
				off := ((s + uint64(i)) % feedRing) * wire.WALFrameBytes
				out = append(out, f.ring[off:off+wire.WALFrameBytes]...)
			}
			f.mu.Unlock()
			return out, nil
		}
		oldest := f.curStart
		if f.hasPrev {
			oldest = f.prevStart
		}
		if s < oldest {
			f.mu.Unlock()
			return nil, fmt.Errorf("%w: want %d, oldest %d", ErrRotatedPast, s, oldest)
		}
		gen := f.gen
		path, start := f.path, f.curStart
		if f.hasPrev && s < f.curStart {
			path, start = f.path+".1", f.prevStart
		}
		f.mu.Unlock()

		b, err := readSegment(f.fs, path)

		f.mu.Lock()
		stale := f.gen != gen
		f.mu.Unlock()
		// A vanished file is the rotation's rename racing this read (the
		// gen bump lands a moment after the rename) — same remedy.
		if stale || errors.Is(err, fs.ErrNotExist) {
			if attempt > 100 {
				return nil, fmt.Errorf("wal: catch-up starved by rotation at slot %d", s)
			}
			continue // the mapping moved under the read; re-resolve
		}
		if err != nil {
			return nil, err
		}
		off := wire.WALHeaderBytes + int(s-start)*wire.WALFrameBytes
		if off+wire.WALFrameBytes > len(b) {
			return nil, nil // appended but not flushed to disk yet: wait
		}
		end := off + max*wire.WALFrameBytes
		if limit := len(b) - (len(b)-wire.WALHeaderBytes)%wire.WALFrameBytes; end > limit {
			end = limit
		}
		return b[off:end], nil
	}
}

// Feed returns the replication feed (nil unless Options.Feed was set).
func (w *Writer) Feed() *Feed { return w.feed }

// noteAppend assigns the next slot to frame: always counts it and
// publishes it when a feed is attached.
func (w *Writer) noteAppend(frame []byte) {
	if w.feed != nil {
		w.feed.publish(frame) // keeps feed.appended == w.appended
	}
	w.appended.Add(1)
}

// noteDurable refreshes the durable-slot watermark after a flush. In
// sync mode "none" persistence timing is the kernel's business, so the
// written watermark is the durable one by the operator's own choice.
func (w *Writer) noteDurable(synced bool) {
	if synced || w.sync == SyncNever {
		w.durable.Store(w.slotsBase + uint64(w.wrote)/wire.WALFrameBytes)
	}
}

// Slots reports the appended and durable slot watermarks: the next slot
// the log will assign, and the slots known flushed (and fsynced, per the
// sync mode) to disk.
func (w *Writer) Slots() (appended, durable uint64) {
	return w.appended.Load(), w.durable.Load()
}

// Promote ends the standby role: rotation resumes, and the new fencing
// epoch is durably stamped — an epoch frame is appended (occupying a
// slot, replicated like any other frame) and flushed to stable storage
// before returning, so a node never acts on an epoch its log could
// forget. An epoch not above the log's current one stamps nothing.
func (w *Writer) Promote(epoch uint64) error {
	w.noRotate = false
	if epoch <= w.epoch {
		return nil
	}
	w.stampEpochFrame(epoch)
	return w.flushBuf(w.sync != SyncNever)
}

// stampEpochFrame appends the epoch frame without flushing (rotation
// re-stamps through this on fresh segments).
func (w *Writer) stampEpochFrame(e uint64) {
	var frame [wire.WALFrameBytes]byte
	wire.EncodeWALEpochFrame(frame[:], e)
	w.buf = append(w.buf, frame[:]...)
	w.noteAppend(frame[:])
	w.epoch = max(w.epoch, e)
}

// AppendRaw logs one already-encoded frame verbatim — the standby apply
// path, which must preserve the primary's bytes (checksums and all) so
// the replicated log is the primary's log. Flush policy matches Append.
func (w *Writer) AppendRaw(frame []byte) error {
	w.buf = append(w.buf, frame...)
	if e, err := wire.DecodeWALEpochFrame(frame); err == nil {
		w.epoch = max(w.epoch, e)
	} else if t, err := wire.DecodeWALFrame(frame); err == nil && t.TS > w.maxTS {
		w.maxTS = t.TS
	}
	w.noteAppend(frame)
	return w.afterAppend()
}

// Package wal is the serving layer's write-ahead log: it makes probe state
// survive restarts and is the stream replication ships. Every probe frame
// is appended before it can influence an answer, and on startup Replay
// feeds the log into a fresh engine. Base frames are not logged — they
// are requests, not state.
//
// On-disk format (see internal/wire walframe.go): a magic segment header
// followed by fixed-size frames each carrying a CRC32C. Recovery is
// salvage-oriented: a torn tail is truncated so appends continue on a
// clean frame boundary, a checksum-failed frame is skipped, and a segment
// without the header is garbage (a torn header from a crashed creation,
// or any foreign bytes) that the writer resets to empty. All outcomes are
// counted in Stats.
//
// The log is two segments: `path` (current) and `path.1` (previous). When
// the current segment exceeds the segment size AND everything in the
// previous segment has expired from the join window (older than the
// retention horizon behind the newest logged timestamp), the segments
// rotate and the old previous is deleted — so at most two segments exist
// and together they always cover the retention horizon.
//
// Every frame appended (data and epoch frames alike) occupies one slot;
// slots are the replication offset space (see feed.go), and the
// `<path>.replstate` file beside the log records a standby's position in
// its primary's slot space (see replstate.go).
package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"

	"oij/internal/faultfs"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/wire"
)

// SyncMode selects when appended frames are fsynced.
type SyncMode uint8

const (
	// SyncInterval fsyncs on the caller's Heartbeat cadence (default): a
	// power loss costs at most a heartbeat's worth of probes.
	SyncInterval SyncMode = iota
	// SyncAlways flushes and fsyncs before every append returns — the
	// fsync-on-ack mode: a probe can influence an answer only after it is
	// power-durable.
	SyncAlways
	// SyncNever flushes to the OS on the heartbeat but never fsyncs;
	// persistence timing is the kernel's business.
	SyncNever
)

// ParseSync maps the -wal-sync flag / server Config.WALSync values.
func ParseSync(s string) (SyncMode, error) {
	switch s {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync mode %q (want interval, always or none)", s)
	}
}

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "none"
	default:
		return "interval"
	}
}

// Stats counts scan and recovery outcomes.
type Stats struct {
	Recovered int64 // intact data frames (replayed into the caller)
	Skipped   int64 // checksum-failed frames skipped over
	Truncated int64 // unsalvageable bytes: torn tails and headerless segments
	// Frames is the total frame slots the scanned segments occupy (data
	// frames, epoch frames and checksum-failed frames alike).
	Frames int64
	// Epoch is the highest fencing epoch stamped into the log (0 when it
	// was never written by a replicated node).
	Epoch uint64
	// Newest is the newest intact data frame timestamp.
	Newest tuple.Time
}

func (a *Stats) add(b Stats) {
	a.Recovered += b.Recovered
	a.Skipped += b.Skipped
	a.Truncated += b.Truncated
	a.Frames += b.Frames
	a.Epoch = max(a.Epoch, b.Epoch)
	a.Newest = max(a.Newest, b.Newest)
}

const (
	// flushChunk is the buffered-frame threshold that forces a write
	// between heartbeats.
	flushChunk = 32 << 10
	// maxBuffer bounds frames retained across failed writes (disk full):
	// beyond it the newest frames are dropped — availability over
	// durability, with every drop surfaced through append errors.
	maxBuffer = 1 << 20
)

// Options configures Open. The zero value is a usable OS-backed log with
// 64 MiB segments, interval sync and no replication.
type Options struct {
	// FS is the filesystem the log writes through (nil: the real one).
	FS faultfs.FS
	// SegmentBytes is the rotation threshold (0: 64 MiB).
	SegmentBytes int64
	// Retention is how far behind the newest timestamp data must still be
	// replayable (window + lateness + slack).
	Retention tuple.Time
	// Sync selects append durability.
	Sync SyncMode
	// Standby holds rotation until Promote: a standby's log mirrors its
	// primary's, and a segment shift would move the slot↔offset mapping
	// replication acks are built on.
	Standby bool
	// Feed attaches the replication feed (see Writer.Feed).
	Feed bool
	// Flight, when set, receives salvage, rotation and recovery events.
	Flight *trace.Flight
	// Alloc, when set, is told about pending-buffer growth (objects and
	// bytes), for per-stage allocation accounting.
	Alloc func(objs, bytes int64)
}

// Writer appends frames to the log. It is single-writer: Append,
// AppendRaw, Heartbeat, Promote, Replay and Close must all run on one
// goroutine. Slots, Feed, Mode, SaveReplState and LoadReplState may be
// used from any goroutine.
type Writer struct {
	fs        faultfs.FS
	path      string
	maxBytes  int64
	retention tuple.Time
	sync      SyncMode
	noRotate  bool
	fr        *trace.Flight
	alloc     func(objs, bytes int64)

	f     faultfs.File
	size  int64  // frame-aligned bytes known written to the segment
	buf   []byte // encoded frames not yet written
	maxTS tuple.Time
	// prevNewest is the newest timestamp in path.1; hasPrev distinguishes
	// "no previous segment" from a previous segment whose newest frame is
	// legitimately stamped 0.
	prevNewest tuple.Time
	hasPrev    bool
	// sanitized counts bytes cut while opening the current segment.
	sanitized int64

	// Slot accounting is always on — two atomics per flush — so callers
	// can report log positions whether or not a feed is attached.
	epoch     uint64 // highest fencing epoch stamped into this log
	feed      *Feed
	slotsBase uint64 // frame slots already on disk when the writer opened
	wrote     int64  // frame bytes written by this process (cumulative across rotations)
	appended  atomic.Uint64
	durable   atomic.Uint64
}

// Open sanitizes the log at path and opens its current segment for
// appending. Sanitizing cuts a torn tail back to a frame boundary (so new
// frames never land mid-frame after a crash) and resets a segment without
// the header; the bytes cut are reported by Sanitized and recorded as a
// wal_salvage flight event.
func Open(path string, o Options) (*Writer, error) {
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	w := &Writer{
		fs: o.FS, path: path, maxBytes: o.SegmentBytes, retention: o.Retention,
		sync: o.Sync, noRotate: o.Standby, fr: o.Flight, alloc: o.Alloc,
	}

	// A restart must not forget what the previous segment still covers:
	// rotation compares against prevNewest, and treating it as absent
	// would let the next rotation delete a segment still inside the
	// retention horizon.
	var prevSlots uint64
	if st, err := scanSegmentFile(o.FS, path+".1", nil); err == nil {
		if st.Recovered > 0 {
			w.prevNewest, w.hasPrev = st.Newest, true
			w.maxTS = st.Newest
		}
		prevSlots = uint64(st.Frames)
		w.epoch = st.Epoch
	}

	cur, err := sanitizeSegment(o.FS, path)
	if err != nil {
		return nil, err
	}
	w.sanitized = cur.Truncated
	if w.sanitized > 0 {
		w.fr.Record(trace.CompWAL, trace.EvWALSalvage, uint64(w.sanitized), 0)
	}
	w.maxTS = max(w.maxTS, cur.Newest)
	w.epoch = max(w.epoch, cur.Epoch)
	w.slotsBase = prevSlots + uint64(cur.Frames)
	w.appended.Store(w.slotsBase)
	w.durable.Store(w.slotsBase)
	if o.Feed {
		w.feed = newFeed(o.FS, path, prevSlots, w.slotsBase)
	}

	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// Mode reports the writer's sync mode.
func (w *Writer) Mode() SyncMode { return w.sync }

// Sanitized reports the bytes cut from the current segment at Open.
func (w *Writer) Sanitized() int64 { return w.sanitized }

// Epoch reports the highest fencing epoch stamped into the log.
func (w *Writer) Epoch() uint64 { return w.epoch }

// openSegment opens the current segment for appending, stamping the
// header on a fresh file.
func (w *Writer) openSegment() error {
	f, size, err := w.fs.OpenAppend(w.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.size = size
	if size == 0 {
		n, err := f.Write([]byte(wire.WALMagicV2))
		if err != nil || n != wire.WALHeaderBytes {
			// A partial header would poison the segment; reset it so the
			// next attempt starts clean.
			w.fs.Truncate(w.path, 0)
			f.Close()
			w.f = nil
			if err == nil {
				err = io.ErrShortWrite
			}
			return fmt.Errorf("wal: header: %w", err)
		}
		w.size = int64(n)
	}
	return nil
}

// Append logs one probe tuple and rotates if due. On error the frame is
// retained (bounded) for a later retry, so a transiently full disk drops
// nothing.
func (w *Writer) Append(t wire.Tuple) error {
	t.Base = false
	// Encode in place: a stack frame handed to the checksum would escape.
	n, before := len(w.buf), cap(w.buf)
	w.buf = append(w.buf, make([]byte, wire.WALFrameBytes)...)
	if w.alloc != nil && cap(w.buf) != before {
		w.alloc(1, int64(cap(w.buf)-before))
	}
	frame := w.buf[n:]
	wire.EncodeWALFrame(frame, t)
	if t.TS > w.maxTS {
		w.maxTS = t.TS
	}
	w.noteAppend(frame)
	return w.afterAppend()
}

// afterAppend applies the flush policy and rotation after one appended
// frame.
func (w *Writer) afterAppend() error {
	var err error
	switch {
	case w.sync == SyncAlways:
		err = w.flushBuf(true)
	case len(w.buf) >= flushChunk:
		err = w.flushBuf(false)
	}
	if rerr := w.maybeRotate(); err == nil {
		err = rerr
	}
	return err
}

// flushBuf writes buffered frames, keeping the segment frame-aligned in
// the face of short writes and write errors: fully-written frames are kept,
// a torn tail is truncated away, and unwritten frames stay buffered for
// the next attempt (newest dropped first past maxBuffer).
func (w *Writer) flushBuf(syncNow bool) error {
	if w.f == nil {
		if err := w.openSegment(); err != nil {
			w.dropOverflow()
			return err
		}
	}
	if len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		if err != nil {
			keep := n - n%wire.WALFrameBytes
			if n > keep {
				// Cut the torn tail; if even that fails the misaligned
				// bytes stay and the next Open's sanitize pass cuts
				// everything after the last clean frame.
				if terr := w.fs.Truncate(w.path, w.size+int64(keep)); terr != nil {
					keep = n
				}
			}
			w.size += int64(keep)
			w.wrote += int64(keep)
			w.buf = append(w.buf[:0], w.buf[keep:]...)
			w.dropOverflow()
			w.noteDurable(false)
			return fmt.Errorf("wal: %w", err)
		}
		w.size += int64(n)
		w.wrote += int64(n)
		w.buf = w.buf[:0]
	}
	if syncNow {
		if err := w.f.Sync(); err != nil {
			w.noteDurable(false)
			return fmt.Errorf("wal: %w", err)
		}
	}
	w.noteDurable(syncNow)
	return nil
}

// dropOverflow bounds the retry buffer, discarding the newest frames so
// the durable log stays a prefix of the ingest order. Dropped frames
// already hold slots, so the slot watermark is rewound and an attached
// feed is poisoned: a standby may have been shipped a slot whose content
// will now differ, and the only safe continuation is a fresh handshake
// (availability over durability, loudly).
func (w *Writer) dropOverflow() {
	if len(w.buf) <= maxBuffer {
		return
	}
	keep := maxBuffer - maxBuffer%wire.WALFrameBytes
	dropped := uint64(len(w.buf)-keep) / wire.WALFrameBytes
	w.buf = w.buf[:keep]
	w.appended.Store(w.appended.Load() - dropped)
	if w.feed != nil {
		w.feed.rewind(w.appended.Load(),
			fmt.Errorf("wal: dropped %d buffered frames after sustained write failures", dropped))
	}
}

// maybeRotate rotates current → previous when the current segment is over
// the size threshold and the previous segment's contents are entirely
// expired (or absent), keeping the two segments sufficient to rebuild the
// retention horizon.
func (w *Writer) maybeRotate() error {
	if w.noRotate {
		return nil // standby: slot offsets stay stable until Promote
	}
	if w.size+int64(len(w.buf)) < w.maxBytes {
		return nil
	}
	if w.hasPrev && w.prevNewest+w.retention >= w.maxTS {
		return nil // previous still holds live data; keep growing
	}
	if err := w.flushBuf(w.sync != SyncNever); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	if err := w.fs.Rename(w.path, w.path+".1"); err != nil {
		// Keep appending to the unrotated segment rather than lose frames.
		w.openSegment()
		return fmt.Errorf("wal: rotate: %w", err)
	}
	w.prevNewest = w.maxTS
	w.hasPrev = true
	if w.feed != nil {
		// buf is empty after the flush above, so every appended slot is in
		// the renamed file: the new current segment starts at `appended`.
		w.feed.rotated(w.appended.Load())
	}
	w.fr.Record(trace.CompWAL, trace.EvWALRotate, uint64(w.size), 0)
	err := w.openSegment()
	if err == nil && w.epoch > 0 {
		// Re-stamp the fencing epoch at the head of the fresh segment so a
		// recovery that only sees surviving segments still finds it.
		w.stampEpochFrame(w.epoch)
	}
	return err
}

// Heartbeat pushes buffered frames to the OS (and to stable storage in
// interval mode); call it on the ingest loop's idle cadence.
func (w *Writer) Heartbeat() error {
	return w.flushBuf(w.sync == SyncInterval)
}

// Close flushes, fsyncs (unless the sync mode is none) and closes the
// current segment.
func (w *Writer) Close() error {
	if w.f == nil && len(w.buf) == 0 {
		return nil
	}
	if err := w.flushBuf(w.sync != SyncNever); err != nil {
		return err
	}
	return w.f.Close()
}

// Replay streams the log's recoverable probes into fn (see the package
// function), folds the newest replayed timestamp into the rotation
// horizon, and records a wal_recovered flight event.
func (w *Writer) Replay(fn func(wire.Tuple)) (Stats, error) {
	st, err := Replay(w.fs, w.path, fn)
	w.maxTS = max(w.maxTS, st.Newest)
	w.fr.Record(trace.CompWAL, trace.EvWALRecovered, uint64(st.Recovered), uint64(st.Skipped))
	return st, err
}

// Replay streams the recoverable probes of the log at path — previous
// segment first, then current — into fn (nil scans without replaying),
// tolerating torn tails and skipping checksum-failed frames. It never
// fails on content, only on I/O; a missing segment holds zero frames.
func Replay(fsys faultfs.FS, path string, fn func(wire.Tuple)) (Stats, error) {
	var total Stats
	for _, p := range []string{path + ".1", path} {
		st, err := scanSegmentFile(fsys, p, fn)
		total.add(st)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// readSegment reads one segment image in full (a missing file is
// fs.ErrNotExist).
func readSegment(fsys faultfs.FS, path string) ([]byte, error) {
	rc, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// scanSegmentFile reads one segment and scans it. A missing segment is
// zero frames, not an error.
func scanSegmentFile(fsys faultfs.FS, path string, fn func(wire.Tuple)) (Stats, error) {
	b, err := readSegment(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return Stats{}, nil
	}
	if err != nil {
		return Stats{}, fmt.Errorf("wal: %s: %w", path, err)
	}
	st, _ := scanSegment(b, fn)
	return st, nil
}

// hasHeader reports whether a segment image starts with the magic.
func hasHeader(b []byte) bool {
	return len(b) >= wire.WALHeaderBytes && string(b[:wire.WALHeaderBytes]) == wire.WALMagicV2
}

// scanSegment parses every salvageable frame of a segment image, calling
// fn (if non-nil) per intact data frame in log order. It returns the
// stats and the byte offset after the last whole frame — everything
// beyond `good` is torn. Fixed frame boundaries let the scan step over a
// checksum-failed frame and continue. A non-empty image without the
// header salvages nothing: all of it counts as truncated.
func scanSegment(b []byte, fn func(wire.Tuple)) (st Stats, good int) {
	if !hasHeader(b) {
		st.Truncated = int64(len(b))
		return st, 0
	}
	off := wire.WALHeaderBytes
	for off+wire.WALFrameBytes <= len(b) {
		frame := b[off : off+wire.WALFrameBytes]
		if e, err := wire.DecodeWALEpochFrame(frame); err == nil {
			// An epoch frame is replication metadata, not a tuple and not
			// corruption: it occupies a slot and carries the fencing
			// epoch the log was written under.
			st.Epoch = max(st.Epoch, e)
		} else if t, err := wire.DecodeWALFrame(frame); err != nil {
			st.Skipped++
		} else {
			st.Recovered++
			st.Newest = max(st.Newest, t.TS)
			if fn != nil {
				fn(t)
			}
		}
		st.Frames++
		off += wire.WALFrameBytes
	}
	st.Truncated = int64(len(b) - off)
	return st, off
}

// sanitizeSegment prepares the current segment for appending: a torn
// tail is truncated back to a frame boundary, and a segment without the
// header is reset to empty so openSegment stamps a clean one. It returns
// the segment's scan stats — Truncated is the bytes cut, Frames the slots
// the sanitized segment holds.
func sanitizeSegment(fsys faultfs.FS, path string) (Stats, error) {
	b, err := readSegment(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return Stats{}, nil
	}
	if err != nil {
		return Stats{}, fmt.Errorf("wal: %s: %w", path, err)
	}
	st, good := scanSegment(b, nil)
	if good < len(b) {
		if err := fsys.Truncate(path, int64(good)); err != nil {
			return st, fmt.Errorf("wal: truncating %s: %w", path, err)
		}
	}
	return st, nil
}

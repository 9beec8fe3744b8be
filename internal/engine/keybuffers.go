package engine

import (
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// KeyBuffers holds one joiner's probe tuples per key in arrival order,
// unsorted: the buffer the full-scan engines (Key-OIJ, SplitJoin) visit in
// full for every base tuple. The scans that read it stay in the engines.
type KeyBuffers map[tuple.Key][]tuple.Tuple

// Append buffers probe t, booking the buffer's growth with rec as an
// ingest allocation.
func (b KeyBuffers) Append(t tuple.Tuple, rec AllocRecorder) {
	buf := b[t.Key]
	before := cap(buf)
	buf = append(buf, t)
	b[t.Key] = buf
	CountSliceGrowth(rec, trace.StageIngest, before, cap(buf), TupleAllocBytes)
}

// ScanState is the rest of a full-scan joiner's state: the base tuples
// awaiting window completion in OnWatermark mode and the watermark-driven
// eviction of its KeyBuffers. It is joiner-private, so it needs no
// locking.
type ScanState struct {
	// Pending holds OnWatermark-mode base tuples whose windows are open.
	Pending PendingHeap
	// WM is the newest in-band watermark handled.
	WM tuple.Time
	// Evicted counts expired probes dropped so far.
	Evicted int64

	core      *Core
	lastSweep tuple.Time
	published int64 // evictions already mirrored into Stats.Evicted
}

// NewScanState returns the state of one of c's joiners before any
// watermark.
func (c *Core) NewScanState() ScanState {
	return ScanState{WM: watermark.MinTime, core: c, lastSweep: watermark.MinTime}
}

// EvictBound returns the timestamp below which a probe tuple can no longer
// match any base tuple the joiner may still process at watermark wm (see
// package engine for the per-mode derivation).
func (s *ScanState) EvictBound(wm tuple.Time) tuple.Time {
	if wm == watermark.MinTime {
		return watermark.MinTime
	}
	w := s.core.Cfg.Window
	bound := wm - w.Pre
	if s.core.Cfg.Mode == OnWatermark {
		bound -= w.Fol
	}
	return bound
}

// Advance handles an in-band watermark: in OnWatermark mode it hands every
// pending base whose window is complete to join, then sweeps expired
// probes out of buffers (at most every half retention horizon) and mirrors
// the evictions into Stats.Evicted.
func (s *ScanState) Advance(wm tuple.Time, buffers KeyBuffers, join func(base tuple.Tuple)) {
	// Equal watermarks are heartbeats: re-run finalization (the global
	// minimum may have advanced) but skip stale (smaller) values.
	if wm < s.WM {
		return
	}
	s.WM = wm
	w := s.core.Cfg.Window
	if s.core.Cfg.Mode == OnWatermark {
		// Finalize complete windows before evicting anything they need.
		for {
			base, ok := s.Pending.PopIfBefore(wm - w.Fol)
			if !ok {
				break
			}
			join(base)
		}
	}
	// Periodic full sweep to reclaim idle keys' buffers; engines compact
	// the keys that see joins inline during their scans.
	horizon := w.Len() + w.Lateness
	if s.lastSweep == watermark.MinTime || wm-s.lastSweep > horizon/2+1 {
		s.lastSweep = wm
		bound := s.EvictBound(wm)
		for k, buf := range buffers {
			buffers[k] = s.compact(buf, bound)
		}
	}
	// Mirror evictions into the shared counter at watermark cadence, so
	// the serving layer's memory guard reads live buffered state without a
	// per-tuple atomic on the join path.
	if d := s.Evicted - s.published; d > 0 {
		s.published = s.Evicted
		s.core.stats.Evicted.Add(d)
	}
}

// compact drops expired tuples from a buffer in place.
func (s *ScanState) compact(buf []tuple.Tuple, bound tuple.Time) []tuple.Tuple {
	keep := buf[:0]
	for _, t := range buf {
		if t.TS >= bound {
			keep = append(keep, t)
		} else {
			s.Evicted++
		}
	}
	return keep
}

// Package window implements the relative-window semantics of the online
// interval join: the window spec (PRE, FOL), the lateness configuration, and
// the bound arithmetic every engine relies on (which probe timestamps match
// a base tuple, when a base tuple's window is complete, and when a probe
// tuple can never match again and may be evicted).
package window

import (
	"errors"
	"fmt"
	"math"

	"oij/internal/tuple"
)

// Spec describes the relative time window of an online interval join
// together with the lateness bound of the input streams. For a base tuple
// with timestamp t the matching probe timestamps are [t-Pre, t+Fol], both
// ends inclusive, matching Definition 2 of the paper.
type Spec struct {
	Pre      tuple.Time // preceding offset PRE (µs, >= 0)
	Fol      tuple.Time // following offset FOL (µs, >= 0)
	Lateness tuple.Time // lateness l (µs, >= 0): max disorder of the streams

	// ExcludeCurrentTime drops probe tuples stamped exactly at the base
	// tuple's timestamp (OpenMLDB's EXCLUDE CURRENT_TIME window option:
	// same-moment events are often by-products of the request itself).
	// It requires Fol == 0, where those rows sit exactly at the upper
	// bound, so exclusion is a one-microsecond retreat of that bound.
	ExcludeCurrentTime bool
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	switch {
	case s.Pre < 0:
		return fmt.Errorf("window: negative PRE %d", s.Pre)
	case s.Fol < 0:
		return fmt.Errorf("window: negative FOL %d", s.Fol)
	case s.Lateness < 0:
		return fmt.Errorf("window: negative lateness %d", s.Lateness)
	case s.Pre == 0 && s.Fol == 0:
		return errors.New("window: empty window (PRE = FOL = 0)")
	case s.ExcludeCurrentTime && s.Fol != 0:
		return errors.New("window: EXCLUDE CURRENT_TIME requires the window to end at CURRENT ROW (FOL = 0)")
	case s.Fol > (math.MaxInt64-s.Lateness)/2-s.Pre:
		// WAL retention and Scale-OIJ's eviction horizon add
		// 2·(PRE+FOL)+lateness; it must not wrap.
		return fmt.Errorf("window: 2·(PRE+FOL)+lateness overflows int64 µs (PRE=%d FOL=%d l=%d)", s.Pre, s.Fol, s.Lateness)
	}
	return nil
}

// Len returns the window length |w| = PRE + FOL.
func (s Spec) Len() tuple.Time { return s.Pre + s.Fol }

// Bounds returns the inclusive probe-timestamp range matched by a base
// tuple with event timestamp ts.
func (s Spec) Bounds(ts tuple.Time) (lo, hi tuple.Time) {
	hi = ts + s.Fol
	if s.ExcludeCurrentTime {
		hi--
	}
	return ts - s.Pre, hi
}

// Contains reports whether a probe tuple with timestamp probeTS falls in
// the window of a base tuple with timestamp baseTS.
func (s Spec) Contains(baseTS, probeTS tuple.Time) bool {
	lo, hi := s.Bounds(baseTS)
	return probeTS >= lo && probeTS <= hi
}

// Complete reports whether the window of a base tuple with timestamp ts is
// closed under watermark wm: no probe tuple that could still arrive
// (i.e. with event time > wm) can land inside the window.
func (s Spec) Complete(ts, wm tuple.Time) bool {
	return ts+s.Fol <= wm
}

// Evictable reports whether a probe tuple with timestamp ts can never match
// a base tuple that might still arrive or finalize under watermark wm. A
// future base tuple has event time > wm, and the probe matches base tuples
// with base timestamp in [ts-Fol, ts+Pre]; once wm passes ts+Pre the probe
// is dead weight. Engines evict on this predicate to bound buffer growth.
func (s Spec) Evictable(ts, wm tuple.Time) bool {
	return ts+s.Pre < wm
}

// Overlap returns the length of the overlap between the windows of two base
// tuples at timestamps a and b (a <= b), in µs. Neighbouring windows overlap
// by |w| - (b-a) when that is positive; the incremental aggregation
// optimization exploits exactly this shared region.
func (s Spec) Overlap(a, b tuple.Time) tuple.Time {
	if b < a {
		a, b = b, a
	}
	ov := s.Len() - (b - a)
	if ov < 0 {
		return 0
	}
	return ov
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("window(PRE=%dµs FOL=%dµs l=%dµs)", s.Pre, s.Fol, s.Lateness)
}

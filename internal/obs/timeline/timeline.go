// Package timeline is a fixed-memory, multi-resolution time-series ring:
// every registered series is recorded once per epoch tick and retained at
// several downsampled resolutions (by default 1s slots for 5 minutes, 10s
// slots for an hour, 1m slots for a day). All storage is allocated at
// construction — a long-running daemon's history cost is a constant a few
// megabytes, never a growing log.
//
// Layout: each tier is a ring of slots; a slot covers one aligned step
// (bucket = unix_seconds / step_seconds) and accumulates, per series, the
// sum, max, and sample count of every tick that landed in that step. A
// 1s-tier slot therefore holds one tick verbatim (avg == the tick), while
// a 1m-tier slot folds sixty. Gaps are first-class: a stalled sampler
// advances the ring by at most one slot when it resumes, so missing
// buckets stay missing instead of being interpolated — a query sees the
// stall as absent points, exactly what an operator debugging it needs.
package timeline

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// TierSpec declares one retention tier: slot width and slot count.
type TierSpec struct {
	Step  time.Duration
	Slots int
}

// Retention returns the tier's covered span.
func (t TierSpec) Retention() time.Duration { return t.Step * time.Duration(t.Slots) }

// Name renders the tier's resolution ("1s", "10s", "1m").
func (t TierSpec) Name() string {
	if t.Step >= time.Minute && t.Step%time.Minute == 0 {
		return fmt.Sprintf("%dm", t.Step/time.Minute)
	}
	return fmt.Sprintf("%ds", t.Step/time.Second)
}

// defaultTiers is the retention ladder operators read: the last 5
// minutes at full epoch resolution, the last hour at 10s, the last day at
// 1m.
var defaultTiers = []TierSpec{
	{Step: time.Second, Slots: 300},
	{Step: 10 * time.Second, Slots: 360},
	{Step: time.Minute, Slots: 1440},
}

// slot is one tier ring entry: a bucket stamp plus per-series aggregates.
// bucket < 0 marks a never-written slot.
type slot struct {
	bucket int64
	sum    []float64
	max    []float64
	n      []uint32
}

func (s *slot) reset(bucket int64) {
	s.bucket = bucket
	for i := range s.sum {
		s.sum[i], s.max[i], s.n[i] = 0, 0, 0
	}
}

// tier is one resolution ring.
type tier struct {
	spec TierSpec
	head int // ring position of the newest slot
	ring []slot
}

// Timeline records a fixed set of named series into every tier. Record is
// called by exactly one sampler goroutine; queries may come from any
// goroutine — both sides take the mutex, which is uncontended in practice
// (one record per epoch, one query per scrape, both sub-millisecond).
type Timeline struct {
	mu     sync.Mutex
	names  []string
	index  map[string]int
	tiers  []tier
	ticks  uint64
	memory int64
}

// New builds a timeline for the given series names over the default
// tiers. All memory is allocated here.
func New(names []string) *Timeline { return newTimeline(names, defaultTiers) }

// newTimeline builds a timeline over the given tiers.
func newTimeline(names []string, tiers []TierSpec) *Timeline {
	tl := &Timeline{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		tl.index[n] = i
	}
	for _, spec := range tiers {
		t := tier{spec: spec, ring: make([]slot, spec.Slots)}
		for i := range t.ring {
			t.ring[i] = slot{
				bucket: -1,
				sum:    make([]float64, len(names)),
				max:    make([]float64, len(names)),
				n:      make([]uint32, len(names)),
			}
		}
		tl.memory += int64(spec.Slots) * int64(len(names)) * (8 + 8 + 4)
		tl.tiers = append(tl.tiers, t)
	}
	return tl
}

// Names returns the registered series names in record order.
func (tl *Timeline) Names() []string { return append([]string(nil), tl.names...) }

// MemoryBytes reports the (construction-time, constant) payload footprint.
func (tl *Timeline) MemoryBytes() int64 { return tl.memory }

// Ticks returns how many samples Record has absorbed.
func (tl *Timeline) Ticks() uint64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.ticks
}

// Record folds one sample vector (aligned with Names; NaN skips a series
// for this tick) into every tier at the given wall time.
func (tl *Timeline) Record(now time.Time, vals []float64) {
	unix := now.Unix()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.ticks++
	for ti := range tl.tiers {
		t := &tl.tiers[ti]
		bucket := unix / int64(t.spec.Step/time.Second)
		cur := &t.ring[t.head]
		switch {
		case cur.bucket == bucket:
			// same step: accumulate below
		case cur.bucket < 0:
			// first ever sample for this tier
			cur.reset(bucket)
		case bucket > cur.bucket:
			// New step: advance exactly one ring position, however long
			// the sampler was stalled — skipped buckets stay absent.
			t.head = (t.head + 1) % len(t.ring)
			cur = &t.ring[t.head]
			cur.reset(bucket)
		default:
			// Clock stepped backwards past the newest slot: drop the
			// sample rather than corrupting ring order.
			continue
		}
		for i, v := range vals {
			if i >= len(cur.sum) || math.IsNaN(v) {
				continue
			}
			if cur.n[i] == 0 || v > cur.max[i] {
				cur.max[i] = v
			}
			cur.sum[i] += v
			cur.n[i]++
		}
	}
}

// Point is one series sample in a query result. TS is the slot's aligned
// start (unix seconds); Avg and Max aggregate the ticks folded into it.
type Point struct {
	TS  int64   `json:"ts"`
	Avg float64 `json:"avg"`
	Max float64 `json:"max"`
	N   uint32  `json:"n"`
}

// Series is one named curve in a query result.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Doc is the /timeline JSON document.
type Doc struct {
	Res         string   `json:"res"`
	StepSeconds int64    `json:"step_seconds"`
	Retention   string   `json:"retention"`
	Resolutions []string `json:"resolutions"`
	SeriesNames []string `json:"series_names,omitempty"`
	Series      []Series `json:"series"`
}

// Resolutions lists the tier names coarse-to-fine callers may query. Safe
// without the mutex: it reads only the tier specs, which never change
// after construction (copying a whole tier would read the head Record
// moves).
func (tl *Timeline) Resolutions() []string {
	out := make([]string, len(tl.tiers))
	for i := range tl.tiers {
		out[i] = tl.tiers[i].spec.Name()
	}
	return out
}

// tierByRes resolves a resolution name ("1s", "10s", "1m"; empty selects
// the finest tier).
func (tl *Timeline) tierByRes(res string) (int, error) {
	if res == "" {
		return 0, nil
	}
	for i, t := range tl.tiers {
		if t.spec.Name() == res {
			return i, nil
		}
	}
	if d, err := time.ParseDuration(res); err == nil {
		for i, t := range tl.tiers {
			if t.spec.Step == d {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("unknown resolution %q (have %v)", res, tl.Resolutions())
}

// Query renders the selected series (nil or empty selects all) at the
// given resolution, restricted to slots starting at or after since (unix
// seconds; 0 means the tier's whole retention). Points come back oldest
// first. Unknown series names and resolutions are errors so operators get
// told about typos instead of empty charts.
func (tl *Timeline) Query(series []string, res string, since int64) (Doc, error) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	ti, err := tl.tierByRes(res)
	if err != nil {
		return Doc{}, err
	}
	sel := make([]int, 0, len(tl.names))
	if len(series) == 0 {
		for i := range tl.names {
			sel = append(sel, i)
		}
	} else {
		for _, name := range series {
			i, ok := tl.index[name]
			if !ok {
				return Doc{}, fmt.Errorf("unknown series %q", name)
			}
			sel = append(sel, i)
		}
	}
	t := &tl.tiers[ti]
	step := int64(t.spec.Step / time.Second)
	doc := Doc{
		Res:         t.spec.Name(),
		StepSeconds: step,
		Retention:   t.spec.Retention().String(),
		Resolutions: tl.Resolutions(),
		Series:      make([]Series, len(sel)),
	}
	if len(series) == 0 {
		doc.SeriesNames = append([]string(nil), tl.names...)
	}
	for oi, si := range sel {
		doc.Series[oi] = Series{Name: tl.names[si], Points: make([]Point, 0, len(t.ring))}
	}
	// Oldest slot is one past the head; walk the ring forward once.
	for off := 1; off <= len(t.ring); off++ {
		s := &t.ring[(t.head+off)%len(t.ring)]
		if s.bucket < 0 || s.bucket*step < since {
			continue
		}
		for oi, si := range sel {
			if s.n[si] == 0 {
				continue
			}
			doc.Series[oi].Points = append(doc.Series[oi].Points, Point{
				TS:  s.bucket * step,
				Avg: s.sum[si] / float64(s.n[si]),
				Max: s.max[si],
				N:   s.n[si],
			})
		}
	}
	return doc, nil
}

// WindowStats aggregates one series over the trailing window ending at
// now, read from the finest tier — the burn-rate primitive the SLO
// evaluator computes verdicts from. ok is false when the window holds no
// samples (a just-started server, or a sampler stall longer than the
// window).
func (tl *Timeline) WindowStats(name string, window time.Duration, now time.Time) (avg, max float64, ok bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	si, found := tl.index[name]
	if !found || len(tl.tiers) == 0 {
		return 0, 0, false
	}
	t := &tl.tiers[0]
	step := int64(t.spec.Step / time.Second)
	since := now.Add(-window).Unix() / step
	var sum float64
	var n uint32
	for i := range t.ring {
		s := &t.ring[i]
		if s.bucket < since || s.n[si] == 0 {
			continue
		}
		sum += s.sum[si]
		n += s.n[si]
		if s.max[si] > max {
			max = s.max[si]
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return sum / float64(n), max, true
}

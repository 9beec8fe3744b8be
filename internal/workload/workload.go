// Package workload synthesizes the input streams of every experiment in the
// paper. The four proprietary 4Paradigm workloads (Table II) are modelled by
// generators parameterized with the table's published characteristics —
// arrival rate, unique keys, window length, lateness, and matches per
// window — plus the synthetic sweeps of §IV-B (Table IV defaults) and the
// Key-OIJ-favouring workload of Table V. Fig. 14's rotating-hot-key stream
// is produced by the HotRotation option.
package workload

import (
	"fmt"
	"math/rand"

	"oij/internal/tuple"
	"oij/internal/window"
)

// HotRotation periodically concentrates traffic on a rotating random set of
// hot keys (Fig. 14's skewed stream): every Period µs of event time a fresh
// set of HotKeys keys is drawn and receives HotShare of all tuples.
type HotRotation struct {
	Period   tuple.Time // rotation period in event-time µs
	HotKeys  int        // size of the hot set
	HotShare float64    // fraction of tuples routed to the hot set
}

// Config fully describes a synthetic workload.
type Config struct {
	Name string

	// N is the total number of tuples to generate across both streams.
	N int

	// EventRate is the number of tuples per second of *event time*; it
	// fixes the density of timestamps and therefore how many tuples fall
	// in a window. It is always finite — Workload C's "∞" arrival rate
	// refers to replay pacing, not timestamp density.
	EventRate float64

	// ArrivalRate is the replay pacing in tuples per wall-clock second;
	// 0 means unpaced (replay at full speed), the paper's "∞".
	ArrivalRate float64

	// Keys is the number of unique keys u.
	Keys int

	// ZipfS skews the key popularity (0 or <=1 = uniform; >1 = Zipf with
	// that exponent).
	ZipfS float64

	// BaseShare is the fraction of tuples belonging to the base stream S;
	// the rest form the probe stream R.
	BaseShare float64

	// Window is the join window and lateness configuration.
	Window window.Spec

	// Disorder is the maximum event-time displacement of a tuple
	// relative to in-order arrival, in µs. It must not exceed
	// Window.Lateness or results would be inexact; presets set it equal
	// to the lateness, matching the paper's "lateness represents the
	// degree of disorder of the dataset".
	Disorder tuple.Time

	// OrderedBase keeps the base stream in event-time order and applies
	// Disorder only to probe tuples. This models OpenMLDB's serving
	// reality — a base tuple is a feature request stamped when it
	// reaches the system, so base timestamps are monotone, while the
	// joined data (orders, transactions, device events) arrives late.
	// All presets enable it.
	OrderedBase bool

	// Hot, when non-nil, enables rotating hot-key skew.
	Hot *HotRotation

	// Seed makes generation deterministic.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload %s: N must be positive, got %d", c.Name, c.N)
	case c.EventRate <= 0:
		return fmt.Errorf("workload %s: EventRate must be positive", c.Name)
	case c.Keys <= 0:
		return fmt.Errorf("workload %s: Keys must be positive", c.Name)
	case c.BaseShare <= 0 || c.BaseShare >= 1:
		return fmt.Errorf("workload %s: BaseShare must be in (0,1), got %g", c.Name, c.BaseShare)
	case c.Disorder < 0:
		return fmt.Errorf("workload %s: negative disorder", c.Name)
	case c.Disorder > c.Window.Lateness:
		return fmt.Errorf("workload %s: disorder %d exceeds lateness %d (results would be inexact)",
			c.Name, c.Disorder, c.Window.Lateness)
	}
	if err := c.Window.Validate(); err != nil {
		return fmt.Errorf("workload %s: %w", c.Name, err)
	}
	return nil
}

// MatchesPerWindow estimates the expected number of probe tuples matching
// one base tuple's window under uniform keys — the quantity Table II
// reports per workload.
func (c Config) MatchesPerWindow() float64 {
	probeRate := c.EventRate * (1 - c.BaseShare) / float64(c.Keys)
	return probeRate * float64(c.Window.Len()) / 1e6
}

// Generate produces the tuple sequence in arrival order.
//
// Tuple i has a nominal event timestamp i/EventRate; a jitter uniform in
// [0, Disorder] is subtracted so that arrival order deviates from event
// order by at most Disorder µs. Because every timestamp satisfies
// ts_j >= nominal_j - Disorder and nominal is monotone, the watermark
// maxSeenTS - Lateness never overtakes a future tuple, so engines that
// evict on it are exact.
func (c Config) Generate() ([]tuple.Tuple, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var zipf *rand.Zipf
	if c.ZipfS > 1 {
		zipf = rand.NewZipf(rng, c.ZipfS, 1, uint64(c.Keys-1))
	}

	tuples := make([]tuple.Tuple, c.N)
	usPerTuple := 1e6 / c.EventRate
	var baseSeq, probeSeq uint64

	hotSet := make([]tuple.Key, 0)
	var nextRotation tuple.Time
	for i := 0; i < c.N; i++ {
		nominal := tuple.Time(float64(i) * usPerTuple)

		var key tuple.Key
		switch {
		case c.Hot != nil:
			if nominal >= nextRotation {
				hotSet = hotSet[:0]
				for len(hotSet) < c.Hot.HotKeys {
					hotSet = append(hotSet, tuple.Key(rng.Intn(c.Keys)))
				}
				nextRotation = nominal + c.Hot.Period
			}
			if rng.Float64() < c.Hot.HotShare {
				key = hotSet[rng.Intn(len(hotSet))]
			} else {
				key = tuple.Key(rng.Intn(c.Keys))
			}
		case zipf != nil:
			key = tuple.Key(zipf.Uint64())
		default:
			key = tuple.Key(rng.Intn(c.Keys))
		}

		t := tuple.Tuple{Key: key, Val: rng.Float64() * 100}
		if rng.Float64() < c.BaseShare {
			t.Side = tuple.Base
			t.Seq = baseSeq
			baseSeq++
		} else {
			t.Side = tuple.Probe
			t.Seq = probeSeq
			probeSeq++
		}
		ts := nominal
		if c.Disorder > 0 && !(c.OrderedBase && t.Side == tuple.Base) {
			ts -= rng.Int63n(c.Disorder + 1)
			if ts < 0 {
				ts = 0
			}
		}
		t.TS = ts
		tuples[i] = t
	}
	return tuples, nil
}

// CountBase returns how many tuples in a generated sequence are base-side.
func CountBase(ts []tuple.Tuple) int {
	n := 0
	for i := range ts {
		if ts[i].Side == tuple.Base {
			n++
		}
	}
	return n
}

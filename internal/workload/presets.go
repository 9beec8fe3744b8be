package workload

import (
	"oij/internal/tuple"
	"oij/internal/window"
)

// Time-unit helpers (event time is in µs).
const (
	us tuple.Time = 1
	ms tuple.Time = 1_000
	s  tuple.Time = 1_000_000
)

// The probe-stream shares below are derived from Table II's published
// matches-per-window figures: share = matches·u / (|w|·rate), so the
// generated streams reproduce the buffer sizes and scan lengths each
// algorithm is sensitive to. See DESIGN.md (substitutions).

// A returns Workload A (Table II): logistics, 120 K/s, 5 keys, |w| = 1 s,
// l = 1 s, ≈4000 matching elements per window. Few keys make it the
// unbalanced-partition stress case (Figs. 4a, 13a).
func A(n int) Config {
	return Config{
		Name:        "A",
		N:           n,
		EventRate:   120_000,
		ArrivalRate: 120_000,
		Keys:        5,
		BaseShare:   1 - 1.0/6, // probe rate 20 K/s -> 4000 matches/window
		Window:      window.Spec{Pre: 1 * s, Fol: 0, Lateness: 1 * s},
		Disorder:    1 * s,
		OrderedBase: true,
		Seed:        42,
	}
}

// B returns Workload B (Table II): retail, 200 K/s, 111 keys, huge window,
// ≈6000 matching elements per window — the match/aggregation-dominated
// case where incremental processing pays (Figs. 4b, 18).
//
// Table II's literal times (|w| = 150 s at 200 K/s) need ≈32 M tuples
// before a single window fills, so the preset compresses event time while
// preserving every quantity the algorithms are sensitive to: the key
// count, the 6000 matches per window (window population == aggregation
// work per base tuple), and the window:lateness ratio; steady state is
// reached within ~1 M tuples. See DESIGN.md (substitutions).
func B(n int) Config {
	return Config{
		Name:        "B",
		N:           n,
		EventRate:   200_000,
		ArrivalRate: 200_000,
		Keys:        111,
		BaseShare:   1 - 0.666, // probe rate 133.2 K/s -> 6000 matches/window
		Window:      window.Spec{Pre: 5 * s, Fol: 0, Lateness: 150 * ms},
		Disorder:    150 * ms,
		OrderedBase: true,
		Seed:        43,
	}
}

// C returns Workload C (Table II): retail, unpaced arrival ("∞"), 45 keys,
// medium window, ≈300 matching elements per window, with lateness an order
// of magnitude beyond the window — the lookup-dominated case where the
// time-travel index pays (Figs. 4c, 19).
//
// As with B, Table II's literal times (l = 100 s) would need >10 M tuples
// per run to populate the lateness range, so event time is compressed
// preserving the key count, the 300 matches per window, and the paper's
// defining ratio for this workload: buffered-but-out-of-window elements
// ≈ 13× the in-window matches (≈3900 lateness-range elements per key).
func C(n int) Config {
	return Config{
		Name:        "C",
		N:           n,
		EventRate:   200_000,
		ArrivalRate: 0, // unpaced: replay at full speed
		Keys:        45,
		BaseShare:   1 - 0.135, // probe rate 27 K/s -> 300 matches/window
		Window:      window.Spec{Pre: 500 * ms, Fol: 0, Lateness: 6500 * ms},
		Disorder:    6500 * ms,
		OrderedBase: true,
		Seed:        44,
	}
}

// D returns Workload D (Table II): logistics, 15 K/s, 5 keys, |w| = 1 s,
// l = 2 s — Workload A's distribution at a low arrival rate, where even few
// cores keep up (Figs. 4d, 20).
func D(n int) Config {
	return Config{
		Name:        "D",
		N:           n,
		EventRate:   15_000,
		ArrivalRate: 15_000,
		Keys:        5,
		BaseShare:   1 - 1.0/6,
		Window:      window.Spec{Pre: 1 * s, Fol: 0, Lateness: 2 * s},
		Disorder:    2 * s,
		OrderedBase: true,
		Seed:        45,
	}
}

// DefaultSynthetic returns the Table IV workload used by the sensitivity
// sweeps of §IV-B: u = 100 keys, |w| = 1000 µs, l = 100 µs, 16 joiners. The
// event rate is 1 M tuples/s so µs-scale windows hold a handful of matches.
func DefaultSynthetic(n int) Config {
	return Config{
		Name:        "synthetic-default",
		N:           n,
		EventRate:   1_000_000,
		ArrivalRate: 0,
		Keys:        100,
		BaseShare:   0.5,
		Window:      window.Spec{Pre: 1000 * us, Fol: 0, Lateness: 100 * us},
		Disorder:    100 * us,
		OrderedBase: true,
		Seed:        7,
	}
}

// TableV returns the Key-OIJ-favouring synthetic workload of Table V
// (Fig. 21): many keys (u = 1000), tiny window (100 µs) and tiny lateness
// (10 µs), where static key partitioning is already balanced and neither
// ordering nor incremental processing has anything to win.
func TableV(n int) Config {
	return Config{
		Name:        "synthetic-tableV",
		N:           n,
		EventRate:   1_000_000,
		ArrivalRate: 0,
		Keys:        1000,
		BaseShare:   0.5,
		Window:      window.Spec{Pre: 100 * us, Fol: 0, Lateness: 10 * us},
		Disorder:    10 * us,
		OrderedBase: true,
		Seed:        8,
	}
}

// Skewed returns the Fig. 14 workload: 10 000 keys (large enough to
// partition evenly even for Key-OIJ) with a random hot set rotating every
// rotation period, other parameters per Table IV. A paced replay runs at
// 100 K tuples/s, so one 100 ms rotation of event time spans a second of
// wall time: many utilization epochs rather than one.
func Skewed(n int) Config {
	c := DefaultSynthetic(n)
	c.Name = "synthetic-skewed"
	c.ArrivalRate = 100_000
	c.Keys = 10_000
	c.Hot = &HotRotation{Period: 100 * ms, HotKeys: 8, HotShare: 0.8}
	c.Seed = 9
	return c
}

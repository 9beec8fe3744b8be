package perf

import (
	"fmt"
	"sort"

	"oij/internal/harness"
)

// Builtin sweep specifications. Three tiers share one shape so their
// numbers stay comparable:
//
//   - "smoke"  — the CI gate: the fewest cells that still cover every
//     engine, the skip-list hot path (lateness sweep) and the dynamic
//     scheduler (skew sweep), sized to finish in well under a minute.
//   - "seed"   — the committed-baseline tier: smoke's axes plus window,
//     emission-mode, latency, and effectiveness sweeps.
//   - "full"   — the paper tier: every figure of the paper's evaluation
//     (Figs. 4–23) as a sweep, recorded nightly and in BENCH_paper.json.
//
// Cell identities are schema: removing or renaming a gated sweep breaks
// comparison against every baseline recorded from the old shape.
var builtins = map[string]func() Spec{
	"smoke": smokeSpec,
	"seed":  seedSpec,
	"full":  fullSpec,
}

// BuiltinSpec returns a named builtin spec.
func BuiltinSpec(name string) (Spec, error) {
	mk, ok := builtins[name]
	if !ok {
		return Spec{}, fmt.Errorf("perf: unknown builtin spec %q (known: %v)", name, BuiltinSpecNames())
	}
	return mk(), nil
}

// BuiltinSpecNames lists the builtin spec names in sorted order.
func BuiltinSpecNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// allEngines is the engine set the paper's comparative figures cover,
// plus the serial refjoin oracle.
func allEngines() []string {
	return []string{harness.KeyOIJ, harness.ScaleOIJ, harness.SplitJoin, harness.OpenMLDB, harness.RefJoin}
}

// contenders are the two engines whose crossover the paper's sensitivity
// sweeps (lateness, window, skew) track.
func contenders() []string {
	return []string{harness.KeyOIJ, harness.ScaleOIJ}
}

func smokeSpec() Spec {
	return Spec{
		SpecVersion: CurrentSpecVersion,
		Name:        "smoke",
		N:           30_000,
		Repeats:     3,
		Sweeps: []Sweep{
			{Name: "threads", Workload: "default", Engines: allEngines(), Threads: []int{1, 4}, Gate: true},
			{Name: "lateness", Workload: "default", Engines: contenders(), Threads: []int{4},
				LatenessUS: []int64{100, 10_000, 50_000}, Gate: true},
			// Skew is gated for scale-oij only: its dynamic scheduler is
			// what the sweep protects. key-oij under skew is recorded but
			// not gated — its throughput is bimodal across processes
			// (whichever joiner draws the hot key sets the run's mode),
			// so cross-run IQRs are legitimately disjoint.
			{Name: "skew", Workload: "default", Engines: []string{harness.ScaleOIJ}, Threads: []int{4},
				ZipfS: []float64{0, 1.2}, Gate: true},
			{Name: "skew-ref", Workload: "default", Engines: []string{harness.KeyOIJ}, Threads: []int{4},
				ZipfS: []float64{0, 1.2}},
			{Name: "latency", Workload: "default", Engines: []string{harness.ScaleOIJ}, Threads: []int{4},
				MeasureLatency: true, Gate: true},
		},
	}
}

func seedSpec() Spec {
	s := smokeSpec()
	s.Name = "seed"
	// Longer cells and more repeats than smoke: on a small host a ~10 ms
	// cell is scheduler-noise-dominated and 3 repeats under-sample the
	// spread, which makes the IQR guard flaky. ~100+ ms cells x 5 repeats
	// hold the gate's false-positive rate down (measured across repeated
	// self-gates on a 1-CPU container).
	s.N = 400_000
	s.Repeats = 5
	s.Sweeps = append(s.Sweeps,
		Sweep{Name: "window", Workload: "default", Engines: contenders(), Threads: []int{4},
			WindowUS: []int64{100, 1_000, 10_000}, Gate: true},
		Sweep{Name: "modes", Workload: "default", Engines: []string{harness.ScaleOIJ}, Threads: []int{4},
			Modes: []string{"on-arrival", "on-watermark"}, Gate: true},
		Sweep{Name: "latency-key", Workload: "default", Engines: []string{harness.KeyOIJ}, Threads: []int{4},
			MeasureLatency: true, Gate: true},
		Sweep{Name: "effectiveness", Workload: "default", Engines: contenders(), Threads: []int{4},
			LatenessUS: []int64{10_000}, Instrument: true},
	)
	return s
}

// fullSpec is the paper's evaluation (§III–§V, Figs. 4–23) as one spec:
// every figure PAPER_RESULTS.md discusses is read off a sweep here, with
// the figure numbers noted beside each. The sensitivity sweeps run the
// paper's default 16 joiners on the Table IV workload.
func fullSpec() Spec {
	threads := []int{1, 2, 4, 8, 16}
	fourEngines := []string{harness.KeyOIJ, harness.ScaleOIJNoInc, harness.ScaleOIJ, harness.SplitJoin}
	latencyEngines := []string{harness.KeyOIJ, harness.ScaleOIJNoInc, harness.ScaleOIJ, harness.SplitJoin, harness.OpenMLDB}
	windows := []int64{100, 1_000, 10_000, 25_000, 50_000}
	windowEngines := []string{harness.KeyOIJ, harness.ScaleOIJNoInc, harness.ScaleOIJ}
	// The top lateness stays well below a run's event-time span
	// (N/EventRate = 200 ms) so the steady-state buffer population, not
	// warmup, dominates each cell.
	lateness := []int64{100, 1_000, 5_000, 10_000, 20_000, 50_000, 100_000}

	sweeps := []Sweep{
		{Name: "threads", Workload: "default", Engines: allEngines(), Threads: threads, Gate: true},
	}
	for _, wl := range []string{"A", "B", "C", "D"} {
		sweeps = append(sweeps,
			// Figs. 4 (key-oij) and 17–20 (throughput).
			Sweep{Name: "threads-" + wl, Workload: wl, Engines: fourEngines, Threads: threads},
			// Figs. 5 (key-oij), 17–20 (latency) and 23 (openmldb).
			Sweep{Name: "latency-" + wl, Workload: wl, Engines: latencyEngines,
				Threads: []int{16}, MeasureLatency: true, Paced: true},
			// Fig. 6: Key-OIJ's lookup/match time breakdown.
			Sweep{Name: "breakdown-" + wl, Workload: wl, Engines: []string{harness.KeyOIJ},
				Threads: []int{16}, Instrument: true},
			// Fig. 22: throughput against the OpenMLDB baseline.
			Sweep{Name: "openmldb-" + wl, Workload: wl, Engines: []string{harness.OpenMLDB, harness.ScaleOIJ},
				Threads: []int{16}},
		)
	}
	sweeps = append(sweeps,
		// Figs. 7 (key-oij) and 11.
		Sweep{Name: "lateness", Workload: "default", Engines: contenders(), Threads: []int{16},
			LatenessUS: lateness, Gate: true},
		Sweep{Name: "effectiveness", Workload: "default", Engines: contenders(), Threads: []int{16},
			LatenessUS: lateness, Instrument: true},
		// Figs. 8 (key-oij) and 13b–c.
		Sweep{Name: "keys", Workload: "default", Engines: contenders(), Threads: []int{16},
			Keys: []int{1, 10, 100, 1_000, 10_000, 100_000}},
		// Fig. 13a: with 5 keys Key-OIJ can use at most 5 joiners.
		Sweep{Name: "keys5", Workload: "default", Engines: contenders(), Threads: threads, Keys: []int{5}},
		// Figs. 9 (key-oij) and 16.
		Sweep{Name: "window", Workload: "default", Engines: windowEngines, Threads: []int{16},
			WindowUS: windows, Gate: true},
		// Fig. 16 with max, which Subtract-on-Evict cannot invert: the
		// two-stacks path keeps incremental Scale-OIJ flat.
		Sweep{Name: "window-max", Workload: "default", Engines: windowEngines, Threads: []int{16},
			WindowUS: windows, Agg: "max"},
		// As in the seed spec, skew and hot-key rotation gate scale-oij
		// only; key-oij's static partition is bimodal under skew and is
		// recorded ungated.
		Sweep{Name: "skew", Workload: "default", Engines: []string{harness.ScaleOIJ}, Threads: []int{16},
			ZipfS: []float64{0, 1.1, 1.5}, Gate: true},
		Sweep{Name: "skew-ref", Workload: "default", Engines: []string{harness.KeyOIJ}, Threads: []int{16},
			ZipfS: []float64{0, 1.1, 1.5}},
		// Fig. 14: paced, so per-joiner work reflects scheduling rather
		// than raw speed; paced cells record per-epoch imbalance.
		Sweep{Name: "rotation", Workload: "skewed", Engines: []string{harness.ScaleOIJ}, Threads: []int{16},
			Paced: true, Gate: true},
		Sweep{Name: "rotation-ref", Workload: "skewed", Engines: []string{harness.KeyOIJ}, Threads: []int{16},
			Paced: true},
		// Fig. 21: the Key-OIJ-favouring workload.
		Sweep{Name: "tableV", Workload: "tableV", Engines: []string{harness.KeyOIJ, harness.ScaleOIJ, harness.SplitJoin},
			Threads: threads, Gate: true},
		// Each Scale-OIJ optimization switched off in turn, on the few-key
		// workload where shared processing matters.
		Sweep{Name: "ablation", Workload: "default", Engines: []string{
			harness.ScaleOIJStatic, harness.ScaleOIJIncOnly, harness.ScaleOIJNoDyn, harness.ScaleOIJNoInc, harness.ScaleOIJ,
		}, Threads: []int{8}, Keys: []int{5}},
		Sweep{Name: "modes", Workload: "default", Engines: contenders(), Threads: []int{16},
			Modes: []string{"on-arrival", "on-watermark"}, Gate: true},
		Sweep{Name: "latency", Workload: "default", Engines: contenders(), Threads: []int{16},
			MeasureLatency: true, Gate: true},
	)
	return Spec{
		SpecVersion: CurrentSpecVersion,
		Name:        "full",
		N:           200_000,
		Repeats:     5,
		Sweeps:      sweeps,
	}
}

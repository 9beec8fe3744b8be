// Package perf is the benchmark subsystem behind the repository's
// performance-regression gate: declarative sweep specifications over the
// paper's experimental axes (engine × joiner threads × window length ×
// lateness × key skew × emission mode), a runner that measures every cell
// of a sweep with pinned repeats on seeded workloads, a versioned
// BENCH_*.json report schema (environment fingerprint, git SHA, per-cell
// samples), and a statistical gate that compares a fresh run against a
// committed baseline using interquartile overlap plus configurable
// regression thresholds. EXPERIMENTS.md documents the operator workflow.
package perf

import (
	"encoding/json"
	"fmt"
	"os"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/tuple"
	"oij/internal/workload"
)

// CurrentSpecVersion is the sweep-spec schema version this build writes
// and accepts.
const CurrentSpecVersion = 1

// Sweep is one cross product of experimental axes over a named base
// workload. Empty axis slices mean "the preset's own value" (a single
// point); the cross product of the non-empty axes defines the sweep's
// cells.
type Sweep struct {
	// Name labels the sweep; it prefixes every cell ID.
	Name string `json:"name"`
	// Workload is a workload.Base preset name ("default", "A", ...).
	Workload string `json:"workload"`
	// Engines are harness.Build variant names.
	Engines []string `json:"engines"`
	// Threads is the joiner-count axis (default: one point, 4 joiners).
	Threads []int `json:"threads,omitempty"`
	// WindowUS overrides the window length (Pre bound) in event-time µs.
	WindowUS []int64 `json:"window_us,omitempty"`
	// LatenessUS overrides lateness in µs; the workload's disorder follows
	// it, matching the paper's "lateness represents the degree of
	// disorder".
	LatenessUS []int64 `json:"lateness_us,omitempty"`
	// ZipfS overrides key skew (0 = uniform, >1 = Zipf exponent).
	ZipfS []float64 `json:"zipf_s,omitempty"`
	// Keys overrides the number of unique keys u. Unlike the other axes
	// it enters a cell ID only when set, so IDs recorded before the axis
	// existed still match.
	Keys []int `json:"keys,omitempty"`
	// Modes are emission modes: "on-arrival" and/or "on-watermark"
	// (default: the preset's serving semantics, on-arrival).
	Modes []string `json:"modes,omitempty"`
	// Agg is the aggregation operator for every cell of the sweep, by its
	// SQL name (default "sum"). It is one value, not an axis, so the
	// sweep name already tells cells of different operators apart.
	Agg string `json:"agg,omitempty"`
	// MeasureLatency stamps base tuples and records p50/p99/p999 per
	// sample. Latency cells are additionally gated on p99 inflation.
	MeasureLatency bool `json:"measure_latency,omitempty"`
	// Paced replays at the workload's arrival rate (only meaningful with
	// MeasureLatency; ignored when the preset is unpaced).
	Paced bool `json:"paced,omitempty"`
	// Instrument enables effectiveness accounting (adds two clock reads
	// per join, so keep it off gated throughput sweeps).
	Instrument bool `json:"instrument,omitempty"`
	// Gate marks this sweep's cells as regression-gated.
	Gate bool `json:"gate,omitempty"`
}

// Spec is a complete, self-describing sweep specification. It is embedded
// verbatim in every report so a gate run can re-execute exactly the
// baseline's cells.
type Spec struct {
	SpecVersion int `json:"spec_version"`
	// Name identifies the spec ("smoke", "seed", "full", or a file's).
	Name string `json:"name"`
	// N is the tuples generated per workload.
	N int `json:"n"`
	// Repeats is the pinned per-cell sample count.
	Repeats int `json:"repeats"`
	// Sweeps are expanded in order into the report's cells.
	Sweeps []Sweep `json:"sweeps"`
}

// emitModes maps spec mode strings to engine emission modes.
var emitModes = map[string]engine.EmitMode{
	"on-arrival":   engine.OnArrival,
	"on-watermark": engine.OnWatermark,
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.SpecVersion != CurrentSpecVersion {
		return fmt.Errorf("perf: spec version %d not supported (want %d)", s.SpecVersion, CurrentSpecVersion)
	}
	if s.N <= 0 {
		return fmt.Errorf("perf: spec %s: N must be positive, got %d", s.Name, s.N)
	}
	if s.Repeats <= 0 {
		return fmt.Errorf("perf: spec %s: repeats must be positive, got %d", s.Name, s.Repeats)
	}
	if len(s.Sweeps) == 0 {
		return fmt.Errorf("perf: spec %s: no sweeps", s.Name)
	}
	known := map[string]bool{}
	for _, e := range harness.Engines() {
		known[e] = true
	}
	seen := map[string]bool{}
	for _, sw := range s.Sweeps {
		switch {
		case sw.Name == "":
			return fmt.Errorf("perf: spec %s: sweep with empty name", s.Name)
		case seen[sw.Name]:
			return fmt.Errorf("perf: spec %s: duplicate sweep name %q", s.Name, sw.Name)
		case len(sw.Engines) == 0:
			return fmt.Errorf("perf: sweep %s: no engines", sw.Name)
		}
		seen[sw.Name] = true
		if _, err := workload.Base(sw.Workload, 1); err != nil {
			return fmt.Errorf("perf: sweep %s: %w", sw.Name, err)
		}
		for _, e := range sw.Engines {
			if !known[e] {
				return fmt.Errorf("perf: sweep %s: unknown engine %q (known: %v)", sw.Name, e, harness.Engines())
			}
		}
		for _, t := range sw.Threads {
			if t < 1 {
				return fmt.Errorf("perf: sweep %s: threads must be >= 1, got %d", sw.Name, t)
			}
		}
		for _, m := range sw.Modes {
			if _, ok := emitModes[m]; !ok {
				return fmt.Errorf("perf: sweep %s: unknown mode %q", sw.Name, m)
			}
		}
		for _, w := range sw.WindowUS {
			if w < 1 {
				return fmt.Errorf("perf: sweep %s: window_us must be >= 1, got %d", sw.Name, w)
			}
		}
		for _, l := range sw.LatenessUS {
			if l < 0 {
				return fmt.Errorf("perf: sweep %s: negative lateness_us %d", sw.Name, l)
			}
		}
		for _, u := range sw.Keys {
			if u < 1 {
				return fmt.Errorf("perf: sweep %s: keys must be >= 1, got %d", sw.Name, u)
			}
		}
		if sw.Agg != "" {
			if _, err := agg.Parse(sw.Agg); err != nil {
				return fmt.Errorf("perf: sweep %s: %w", sw.Name, err)
			}
		}
	}
	return nil
}

// Cells expands the spec into its measurement cells in deterministic
// order, with every axis resolved to concrete values (presets fill the
// axes a sweep leaves empty). Samples are empty; the runner fills them.
func (s Spec) Cells() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var cells []Cell
	for _, sw := range s.Sweeps {
		base, err := workload.Base(sw.Workload, s.N)
		if err != nil {
			return nil, err
		}
		threads := sw.Threads
		if len(threads) == 0 {
			threads = []int{4}
		}
		windows := sw.WindowUS
		if len(windows) == 0 {
			windows = []int64{int64(base.Window.Pre)}
		}
		lateness := sw.LatenessUS
		if len(lateness) == 0 {
			lateness = []int64{int64(base.Window.Lateness)}
		}
		zipfs := sw.ZipfS
		if len(zipfs) == 0 {
			zipfs = []float64{base.ZipfS}
		}
		modes := sw.Modes
		if len(modes) == 0 {
			modes = []string{engine.OnArrival.String()}
		}
		// 0 stands for the preset's own key count and keeps u out of
		// the cell ID.
		keys := sw.Keys
		if len(keys) == 0 {
			keys = []int{0}
		}
		for _, eng := range sw.Engines {
			for _, th := range threads {
				for _, win := range windows {
					for _, late := range lateness {
						for _, z := range zipfs {
							for _, u := range keys {
								for _, mode := range modes {
									c := Cell{
										Sweep:        sw.Name,
										Engine:       eng,
										Workload:     sw.Workload,
										Threads:      th,
										WindowUS:     win,
										LatenessUS:   late,
										ZipfS:        z,
										Keys:         u,
										Mode:         mode,
										Agg:          sw.Agg,
										N:            s.N,
										Gated:        sw.Gate,
										Latency:      sw.MeasureLatency,
										Paced:        sw.Paced,
										Instrumented: sw.Instrument,
									}
									c.ID = c.id()
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// workloadConfig resolves the cell's concrete workload configuration.
func (c Cell) workloadConfig() (workload.Config, error) {
	wl, err := workload.Base(c.Workload, c.N)
	if err != nil {
		return workload.Config{}, err
	}
	wl.Window.Pre = tuple.Time(c.WindowUS)
	wl.Window.Lateness = tuple.Time(c.LatenessUS)
	// Disorder tracks lateness (the paper's convention) and must never
	// exceed it or results would be inexact.
	wl.Disorder = tuple.Time(c.LatenessUS)
	wl.ZipfS = c.ZipfS
	if c.Keys > 0 {
		wl.Keys = c.Keys
	}
	if !c.Paced {
		wl.ArrivalRate = 0
	}
	return wl, nil
}

// id renders the canonical cell identity: every resolved parameter, so
// baselines and fresh runs match cells by string equality. The key count
// appears only when the sweep overrides it.
func (c Cell) id() string {
	keys := ""
	if c.Keys > 0 {
		keys = fmt.Sprintf("/u=%d", c.Keys)
	}
	return fmt.Sprintf("%s/%s/wl=%s/t=%d/w=%dus/l=%dus/z=%g%s/%s",
		c.Sweep, c.Engine, c.Workload, c.Threads, c.WindowUS, c.LatenessUS, c.ZipfS, keys, c.Mode)
}

// ParseSpec decodes and validates a JSON sweep spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("perf: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a JSON sweep spec from disk.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("perf: reading spec: %w", err)
	}
	return ParseSpec(data)
}

package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"oij/internal/faultfs"
	"oij/internal/workload/pattern"
)

// SimSchemaVersion is the SIM_*.json timeline-report schema version this
// build writes and accepts. Versioned like BENCH_*.json: the nightly CI
// archives these files, so readers must be able to reject a format they
// don't understand.
const SimSchemaVersion = 1

// SimReport is the on-disk record of one scenario simulation
// (SIM_<profile>.json, written next to BENCH_*.json): the full profile for
// reproducibility, the drive configuration, the environment fingerprint,
// and one row per report interval.
type SimReport struct {
	SchemaVersion int `json:"schema_version"`
	// Profile embeds the exact scenario that ran; re-running the embedded
	// profile with the same seed regenerates the identical tuple sequence.
	Profile pattern.Profile `json:"profile"`
	// Engine/Joiners/Mode describe the measured engine (engine drive) or
	// the remote daemon's configuration knobs the driver chose (TCP drive
	// reports the drive-side view only).
	Engine  string `json:"engine"`
	Joiners int    `json:"joiners"`
	Mode    string `json:"mode"`
	// Drive is "engine" (in-process) or "tcp" (live oijd).
	Drive string `json:"drive"`
	// TimeScale is the effective wall-clock compression the run used.
	TimeScale float64 `json:"time_scale"`
	// Unpaced records that wall pacing was disabled (tests and correctness
	// replays): wall-clock columns are then meaningless.
	Unpaced bool `json:"unpaced,omitempty"`

	CreatedAt     time.Time `json:"created_at"`
	GitSHA        string    `json:"git_sha,omitempty"`
	Env           Env       `json:"env"`
	WallElapsedNS int64     `json:"wall_elapsed_ns"`

	// Totals over all intervals.
	Tuples  int64 `json:"tuples"`
	Bases   int64 `json:"bases"`
	Probes  int64 `json:"probes"`
	Results int64 `json:"results"`
	Nacks   int64 `json:"nacks"`
	Sheds   int64 `json:"sheds"`
	// Truncated records that the run stopped before the profile's
	// simulated duration (a max-tuples cap).
	Truncated bool `json:"truncated,omitempty"`

	// SLOBreachedIntervals counts intervals whose verdict failed (0 when
	// the profile declares no SLO).
	SLOBreachedIntervals int `json:"slo_breached_intervals"`

	Intervals []SimInterval `json:"intervals"`
}

// SimInterval is one timeline row: what happened during one report
// interval of simulated time.
type SimInterval struct {
	Index     int     `json:"index"`
	SimStartS float64 `json:"sim_start_s"`
	SimEndS   float64 `json:"sim_end_s"`

	Tuples int64 `json:"tuples"`
	Bases  int64 `json:"bases"`
	Probes int64 `json:"probes"`
	// OfferedRateTPS is tuples per simulated second — the load curve the
	// profile shaped, independent of time scale.
	OfferedRateTPS float64 `json:"offered_rate_tps"`
	// WallThroughputTPS is tuples per wall second actually achieved.
	WallThroughputTPS float64 `json:"wall_throughput_tps"`

	// Request latency quantiles in µs (wall clock), measured base-arrival
	// to result emission (engine drive) or request round-trip (TCP drive).
	// Zero when the interval carried no measured request.
	P50US int64 `json:"p50_us,omitempty"`
	P99US int64 `json:"p99_us,omitempty"`

	Results int64 `json:"results"`
	Evicted int64 `json:"evicted"`
	// Nacks counts admission/deadline NACKs observed by the driver; Sheds
	// counts server-side probe sheds (TCP drive with an admin scrape).
	Nacks int64 `json:"nacks"`
	Sheds int64 `json:"sheds"`

	// WatermarkLagS is the watermark lag at interval close, in simulated
	// seconds (max event time minus watermark).
	WatermarkLagS float64 `json:"watermark_lag_s"`

	// SLOOK is the interval's verdict against the profile's SLO spec;
	// SLOBreaches names the dimensions that failed.
	SLOOK       bool     `json:"slo_ok"`
	SLOBreaches []string `json:"slo_breaches,omitempty"`
}

// evalSLO scores one interval against the profile's SLO spec.
func evalSLO(slo *pattern.SLOSpec, iv *SimInterval) {
	iv.SLOOK = true
	if slo == nil {
		return
	}
	breach := func(dim string) {
		iv.SLOOK = false
		iv.SLOBreaches = append(iv.SLOBreaches, dim)
	}
	if slo.P99Ms > 0 && float64(iv.P99US)/1e3 > slo.P99Ms {
		breach("p99_latency")
	}
	if slo.MaxLagS > 0 && iv.WatermarkLagS > slo.MaxLagS {
		breach("watermark_lag")
	}
	if (slo.CheckNacks || slo.MaxNacks > 0) && iv.Nacks > slo.MaxNacks {
		breach("nacks")
	}
	if (slo.CheckSheds || slo.MaxSheds > 0) && iv.Sheds > slo.MaxSheds {
		breach("sheds")
	}
}

// WriteFile writes the report as indented JSON via temp file + rename, so
// an interrupted run never leaves a truncated report behind.
func (r *SimReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encoding sim report: %w", err)
	}
	data = append(data, '\n')
	if err := faultfs.WriteFileAtomic(faultfs.OS{}, path, data); err != nil {
		return fmt.Errorf("perf: writing sim report: %w", err)
	}
	return nil
}

// ReadSimReport loads and version-checks a SIM_*.json report.
func ReadSimReport(path string) (*SimReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: reading sim report: %w", err)
	}
	var r SimReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parsing sim report %s: %w", path, err)
	}
	if r.SchemaVersion != SimSchemaVersion {
		return nil, fmt.Errorf("perf: sim report %s has schema version %d, this build reads %d",
			path, r.SchemaVersion, SimSchemaVersion)
	}
	if err := r.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("perf: sim report %s: %w", path, err)
	}
	return &r, nil
}

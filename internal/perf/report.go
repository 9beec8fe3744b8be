package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"oij/internal/faultfs"
)

// SchemaVersion is the BENCH_*.json report schema version this build
// writes and accepts.
const SchemaVersion = 1

// Report is the on-disk benchmark record (BENCH_<tag>.json): everything a
// later gate run needs to re-execute the same cells and decide whether the
// fresh numbers regressed.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Tag names the record ("seed", "nightly", a PR number, ...).
	Tag string `json:"tag"`
	// CreatedAt is the wall-clock completion time of the run.
	CreatedAt time.Time `json:"created_at"`
	// GitSHA is the commit the run measured (best effort; "" if unknown).
	GitSHA string `json:"git_sha,omitempty"`
	// Env fingerprints the machine, toolchain, and calibration score.
	Env Env `json:"env"`
	// Spec is the exact sweep specification that produced Cells.
	Spec Spec `json:"spec"`
	// Cells holds one entry per expanded cell, each with Repeats samples.
	Cells []Cell `json:"cells"`
}

// Env fingerprints where a report was recorded. Gate normalization uses
// CalibrationOpsPerUS to compare reports across machines of different
// speeds; the rest is provenance for humans reading BENCH_*.json.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
	// CalibrationOpsPerUS is the single-core score of a fixed integer-mix
	// microbenchmark (see Calibrate): hash operations per microsecond.
	CalibrationOpsPerUS float64 `json:"calibration_ops_per_us,omitempty"`
}

// Cell is one measured parameter combination. The identity fields mirror
// the spec expansion (see Spec.Cells); Samples holds one entry per repeat.
type Cell struct {
	ID           string   `json:"id"`
	Sweep        string   `json:"sweep"`
	Engine       string   `json:"engine"`
	Workload     string   `json:"workload"`
	Threads      int      `json:"threads"`
	WindowUS     int64    `json:"window_us"`
	LatenessUS   int64    `json:"lateness_us"`
	ZipfS        float64  `json:"zipf_s"`
	Keys         int      `json:"keys,omitempty"` // 0: the preset's own
	Mode         string   `json:"mode"`
	Agg          string   `json:"agg,omitempty"` // "": sum
	N            int      `json:"n"`
	Gated        bool     `json:"gated,omitempty"`
	Latency      bool     `json:"latency,omitempty"`
	Paced        bool     `json:"paced,omitempty"`
	Instrumented bool     `json:"instrumented,omitempty"`
	Samples      []Sample `json:"samples"`
}

// Sample is one repeat's measurements.
type Sample struct {
	ThroughputTPS  float64 `json:"throughput_tps"`
	ElapsedNS      int64   `json:"elapsed_ns"`
	Results        int64   `json:"results"`
	Unbalancedness float64 `json:"unbalancedness"`
	// Latency quantiles in nanoseconds; present only on latency cells.
	P50NS  int64 `json:"p50_ns,omitempty"`
	P99NS  int64 `json:"p99_ns,omitempty"`
	P999NS int64 `json:"p999_ns,omitempty"`
	// Effectiveness (Eq. 1) and the Fig. 6 time breakdown's lookup and
	// match shares of joiner busy time; present only on instrumented
	// cells.
	Effectiveness float64 `json:"effectiveness,omitempty"`
	LookupShare   float64 `json:"lookup_share,omitempty"`
	MatchShare    float64 `json:"match_share,omitempty"`
	// Per-epoch imbalance and temporal smoothness of per-joiner work
	// (Fig. 14), sampled every UtilEpoch; present only on paced cells.
	Imbalance  float64 `json:"imbalance,omitempty"`
	Smoothness float64 `json:"smoothness,omitempty"`
}

// Throughputs extracts the cell's throughput samples.
func (c Cell) Throughputs() []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.ThroughputTPS
	}
	return out
}

// P99s extracts the cell's p99 latency samples in nanoseconds.
func (c Cell) P99s() []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = float64(s.P99NS)
	}
	return out
}

// CaptureEnv fingerprints the current process environment, including the
// calibration score (which costs a few tens of milliseconds).
func CaptureEnv() Env {
	host, _ := os.Hostname()
	return Env{
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Hostname:            host,
		CalibrationOpsPerUS: Calibrate(),
	}
}

// Calibrate measures a fixed single-core integer-mix microbenchmark
// (splitmix64 finalizer chain, the mix the engines' key hashing uses) and
// returns operations per microsecond — a machine-speed score recorded in
// every report. The gate scales a baseline recorded on different hardware
// by the ratio of scores, so a committed baseline stays meaningful on a
// differently-sized CI runner. Best of three trials, to shed scheduler
// noise.
func Calibrate() float64 {
	const ops = 1 << 22
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < ops; i++ {
			x ^= uint64(i)
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x = (x ^ (x >> 27)) * 0x94d049bb133111eb
			x ^= x >> 31
		}
		elapsed := time.Since(start)
		sink = x // defeat dead-code elimination
		if us := float64(elapsed.Microseconds()); us > 0 {
			if score := ops / us; score > best {
				best = score
			}
		}
	}
	return best
}

var sink uint64

// WriteFile writes the report as indented JSON via a temp file + rename,
// so a crashed run never leaves a truncated baseline behind.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := faultfs.WriteFileAtomic(faultfs.OS{}, path, data); err != nil {
		return fmt.Errorf("perf: writing report: %w", err)
	}
	return nil
}

// ReadReport loads and validates a BENCH_*.json report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: reading report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parsing report %s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perf: report %s has schema version %d, this build reads %d", path, r.SchemaVersion, SchemaVersion)
	}
	if err := r.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("perf: report %s: %w", path, err)
	}
	return &r, nil
}

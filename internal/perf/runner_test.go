package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"oij/internal/harness"
)

// tinySpec is sized for test time, not statistical power.
func tinySpec() Spec {
	return Spec{
		SpecVersion: CurrentSpecVersion,
		Name:        "tiny",
		N:           5000,
		Repeats:     2,
		Seed:        1,
		Sweeps: []Sweep{
			{Name: "tput", Workload: "default", Engines: []string{harness.KeyOIJ, harness.ScaleOIJ},
				Threads: []int{2}, Gate: true},
			{Name: "lat", Workload: "default", Engines: []string{harness.ScaleOIJ},
				Threads: []int{2}, MeasureLatency: true, Gate: true},
			{Name: "eff", Workload: "default", Engines: []string{harness.KeyOIJ},
				Threads: []int{2}, Instrument: true},
		},
	}
}

func TestRunSpecEndToEnd(t *testing.T) {
	env := Env{GoVersion: "test", CalibrationOpsPerUS: 1}
	rep, err := RunSpec(tinySpec(), RunOptions{Tag: "t", Env: &env})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if len(c.Samples) != 2 {
			t.Fatalf("%s: got %d samples, want 2", c.ID, len(c.Samples))
		}
		for _, s := range c.Samples {
			if s.ThroughputTPS <= 0 || s.ElapsedNS <= 0 || s.Results <= 0 {
				t.Errorf("%s: implausible sample %+v", c.ID, s)
			}
			if c.Latency && s.P99NS <= 0 {
				t.Errorf("%s: latency cell without p99: %+v", c.ID, s)
			}
			if !c.Latency && s.P99NS != 0 {
				t.Errorf("%s: non-latency cell with p99: %+v", c.ID, s)
			}
			if c.Instrumented && (s.Effectiveness <= 0 || s.Effectiveness > 1) {
				t.Errorf("%s: effectiveness %g outside (0,1]", c.ID, s.Effectiveness)
			}
		}
	}

	// The report round-trips through disk, and a self-gate passes.
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(rep.Cells) || back.Tag != rep.Tag {
		t.Fatalf("report changed across disk round-trip")
	}
	g := Gate(back, rep, DefaultGateOptions())
	if !g.OK() {
		t.Fatalf("self-gate failed: %+v", g)
	}
}

// TestRunSpecWithProfiler proves a sweep runs to completion with the
// continuous profiler attached and leaves a usable ring behind: at least
// the sweep-start capture round (CPU + heap) and a MANIFEST.json profdiff
// can consume.
func TestRunSpecWithProfiler(t *testing.T) {
	s := tinySpec()
	s.Repeats = 1
	dir := filepath.Join(t.TempDir(), "ring")
	env := Env{GoVersion: "test", CalibrationOpsPerUS: 1}
	rep, err := RunSpec(s, RunOptions{Tag: "p", Env: &env, Profiler: true, ProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	man, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatalf("profiler left no manifest: %v", err)
	}
	var doc struct {
		Entries []struct {
			Kind string `json:"kind"`
			File string `json:"file"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(man, &doc); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, e := range doc.Entries {
		kinds[e.Kind] = true
		if _, err := os.Stat(filepath.Join(dir, e.File)); err != nil {
			t.Errorf("manifest entry without file: %v", err)
		}
	}
	if !kinds["cpu"] || !kinds["heap"] {
		t.Fatalf("ring kinds = %v, want cpu and heap", kinds)
	}
}

// TestPacedCellsRecordUtilization checks the Fig. 14 metrics: a paced
// cell spanning several utilization epochs records per-epoch imbalance,
// and an unpaced one records none. Key-OIJ under a hot set is never
// balanced per epoch.
func TestPacedCellsRecordUtilization(t *testing.T) {
	s := Spec{
		SpecVersion: CurrentSpecVersion, Name: "util", N: 20_000, Repeats: 1,
		Sweeps: []Sweep{
			{Name: "paced", Workload: "skewed", Engines: []string{harness.KeyOIJ}, Threads: []int{4}, Paced: true},
			{Name: "unpaced", Workload: "skewed", Engines: []string{harness.KeyOIJ}, Threads: []int{4}},
		},
	}
	rep, err := RunSpec(s, RunOptions{Env: &Env{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Cells[0].Samples[0]; got.Imbalance <= 0 {
		t.Errorf("paced cell recorded imbalance %g, want > 0", got.Imbalance)
	}
	if got := rep.Cells[1].Samples[0]; got.Imbalance != 0 || got.Smoothness != 0 {
		t.Errorf("unpaced cell recorded utilization %+v", got)
	}
}

func TestRunSpecOverrides(t *testing.T) {
	s := tinySpec()
	s.Sweeps = s.Sweeps[:1]
	rep, err := RunSpec(s, RunOptions{Repeats: 1, N: 2000, Env: &Env{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Repeats != 1 || rep.Spec.N != 2000 {
		t.Fatalf("overrides not recorded in report spec: %+v", rep.Spec)
	}
	for _, c := range rep.Cells {
		if len(c.Samples) != 1 || c.N != 2000 {
			t.Fatalf("overrides not applied to cell %+v", c)
		}
	}
}

func TestReadReportRejectsBadSchema(t *testing.T) {
	rep, err := RunSpec(Spec{
		SpecVersion: CurrentSpecVersion, Name: "x", N: 1000, Repeats: 1,
		Sweeps: []Sweep{{Name: "s", Workload: "default", Engines: []string{harness.KeyOIJ}, Threads: []int{1}}},
	}, RunOptions{Env: &Env{}})
	if err != nil {
		t.Fatal(err)
	}
	rep.SchemaVersion = 99
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("expected schema version mismatch error")
	}
}

func TestCalibrate(t *testing.T) {
	if score := Calibrate(); score <= 0 {
		t.Fatalf("calibration score %g, want > 0", score)
	}
}

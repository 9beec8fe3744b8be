package perf

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"oij/internal/harness"
)

func validSpec() Spec {
	return Spec{
		SpecVersion: CurrentSpecVersion,
		Name:        "t",
		N:           1000,
		Repeats:     2,
		Sweeps: []Sweep{
			{Name: "s", Workload: "default", Engines: []string{harness.KeyOIJ}},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"bad version", func(s *Spec) { s.SpecVersion = 99 }, "version"},
		{"zero n", func(s *Spec) { s.N = 0 }, "N must be positive"},
		{"zero repeats", func(s *Spec) { s.Repeats = 0 }, "repeats"},
		{"no sweeps", func(s *Spec) { s.Sweeps = nil }, "no sweeps"},
		{"unknown engine", func(s *Spec) { s.Sweeps[0].Engines = []string{"nope"} }, "unknown engine"},
		{"unknown workload", func(s *Spec) { s.Sweeps[0].Workload = "nope" }, "unknown preset"},
		{"unknown mode", func(s *Spec) { s.Sweeps[0].Modes = []string{"sometimes"} }, "unknown mode"},
		{"bad threads", func(s *Spec) { s.Sweeps[0].Threads = []int{0} }, "threads"},
		{"bad window", func(s *Spec) { s.Sweeps[0].WindowUS = []int64{0} }, "window_us"},
		{"bad lateness", func(s *Spec) { s.Sweeps[0].LatenessUS = []int64{-1} }, "lateness_us"},
		{"bad keys", func(s *Spec) { s.Sweeps[0].Keys = []int{0} }, "keys"},
		{"unknown agg", func(s *Spec) { s.Sweeps[0].Agg = "median" }, "unknown aggregation"},
		{"empty sweep name", func(s *Spec) { s.Sweeps[0].Name = "" }, "empty name"},
		{"duplicate sweep", func(s *Spec) { s.Sweeps = append(s.Sweeps, s.Sweeps[0]) }, "duplicate"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestSpecCellsExpansion(t *testing.T) {
	s := validSpec()
	s.Sweeps = []Sweep{{
		Name:       "x",
		Workload:   "default",
		Engines:    []string{harness.KeyOIJ, harness.ScaleOIJ},
		Threads:    []int{1, 4},
		LatenessUS: []int64{100, 1000, 10000},
		Gate:       true,
	}}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 3; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	ids := map[string]bool{}
	for _, c := range cells {
		if ids[c.ID] {
			t.Fatalf("duplicate cell ID %s", c.ID)
		}
		ids[c.ID] = true
		if !c.Gated {
			t.Errorf("%s: expected gated", c.ID)
		}
		// Unset axes resolve to the preset's concrete values, so the ID
		// pins every parameter.
		if c.WindowUS != 1000 { // DefaultSynthetic's |w|
			t.Errorf("%s: window not resolved from preset, got %d", c.ID, c.WindowUS)
		}
		wl, err := c.workloadConfig()
		if err != nil {
			t.Fatal(err)
		}
		if int64(wl.Window.Lateness) != c.LatenessUS || int64(wl.Disorder) != c.LatenessUS {
			t.Errorf("%s: lateness override not applied (lateness=%d disorder=%d)",
				c.ID, wl.Window.Lateness, wl.Disorder)
		}
	}
	// The key-count axis overrides the preset and enters the ID only when
	// the sweep sets it; the aggregation resolves per sweep.
	s.Sweeps[0].Keys = []int{5}
	s.Sweeps[0].Agg = "max"
	keyed, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range keyed {
		if want := strings.Replace(cells[i].ID, "/z=0/", "/z=0/u=5/", 1); c.ID != want {
			t.Errorf("keyed ID %s, want %s", c.ID, want)
		}
		wl, err := c.workloadConfig()
		if err != nil {
			t.Fatal(err)
		}
		if wl.Keys != 5 || c.Agg != "max" {
			t.Errorf("%s: keys=%d agg=%q, want 5 and max", c.ID, wl.Keys, c.Agg)
		}
	}
	s.Sweeps[0].Keys, s.Sweeps[0].Agg = nil, ""

	// Expansion is deterministic.
	again, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].ID != again[i].ID {
			t.Fatalf("expansion order unstable at %d: %s vs %s", i, cells[i].ID, again[i].ID)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range BuiltinSpecNames() {
		s, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: round-trip parse: %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: spec changed across JSON round-trip:\n%+v\n%+v", name, s, back)
		}
	}
}

func TestBuiltinSpecsValidAndGated(t *testing.T) {
	for _, name := range BuiltinSpecNames() {
		s, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := s.Cells()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gated := 0
		for _, c := range cells {
			if c.Gated {
				gated++
			}
		}
		if gated == 0 {
			t.Errorf("builtin spec %s gates no cells", name)
		}
	}
	if _, err := BuiltinSpec("nope"); err == nil {
		t.Error("expected error for unknown builtin spec")
	}
}

// TestSeedCellIDsStable pins the committed baseline to the seed spec: a
// cell ID the spec no longer produces is a gated cell the gate would
// report missing on every run.
func TestSeedCellIDsStable(t *testing.T) {
	base, err := ReadReport("../../BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := seedSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, c := range cells {
		ids[c.ID] = true
	}
	for _, c := range base.Cells {
		if !ids[c.ID] {
			t.Errorf("BENCH_seed.json cell %s is not produced by seedSpec()", c.ID)
		}
	}
	if len(base.Cells) != len(cells) {
		t.Errorf("BENCH_seed.json has %d cells, seedSpec() %d", len(base.Cells), len(cells))
	}
}

// TestFullSpecRuns executes every cell of the paper spec once at a tiny
// scale, one subtest per sweep, so a broken figure is caught by go test
// rather than at recording time. Skipped under -short.
func TestFullSpecRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper cell; run without -short")
	}
	full := fullSpec()
	for _, sw := range full.Sweeps {
		t.Run(sw.Name, func(t *testing.T) {
			s := full
			s.Sweeps = []Sweep{sw}
			smokeRun(t, s)
		})
	}
}

// paperFigures maps each figure PAPER_RESULTS.md reproduces to the full
// spec's sweeps it is read from and, where the figure shows one engine's
// rows only, that engine.
var paperFigures = []struct {
	fig    string
	sweeps []string
	engine string // "": every engine of the sweeps
}{
	{"fig4", []string{"threads-A", "threads-B", "threads-C", "threads-D"}, harness.KeyOIJ},
	{"fig5", []string{"latency-A", "latency-B", "latency-C", "latency-D"}, harness.KeyOIJ},
	{"fig6", []string{"breakdown-A", "breakdown-B", "breakdown-C", "breakdown-D"}, harness.KeyOIJ},
	{"fig7", []string{"effectiveness"}, harness.KeyOIJ},
	{"fig8", []string{"keys"}, harness.KeyOIJ},
	{"fig9", []string{"window"}, harness.KeyOIJ},
	{"fig11", []string{"lateness"}, ""},
	{"fig13a", []string{"keys5"}, ""},
	{"fig13b", []string{"keys"}, ""},
	{"fig13c", []string{"keys"}, ""},
	{"fig14", []string{"rotation", "rotation-ref"}, ""},
	{"fig16", []string{"window"}, ""},
	{"fig17", []string{"threads-A", "latency-A"}, ""},
	{"fig18", []string{"threads-B", "latency-B"}, ""},
	{"fig19", []string{"threads-C", "latency-C"}, ""},
	{"fig20", []string{"threads-D", "latency-D"}, ""},
	{"fig21", []string{"tableV"}, ""},
	{"fig22", []string{"openmldb-A", "openmldb-B", "openmldb-C", "openmldb-D"}, ""},
	{"fig23", []string{"latency-A", "latency-B", "latency-C", "latency-D"}, harness.OpenMLDB},
}

// TestPaperFigures runs, one subtest per figure, the cells of the full
// spec that figure is read from, so each figure PAPER_RESULTS.md shows
// is known to exist in the spec and to produce plausible samples.
// Skipped under -short.
func TestPaperFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper cells; run without -short")
	}
	full := fullSpec()
	byName := make(map[string]Sweep, len(full.Sweeps))
	for _, sw := range full.Sweeps {
		byName[sw.Name] = sw
	}
	for _, f := range paperFigures {
		t.Run(f.fig, func(t *testing.T) {
			s := full
			s.Sweeps = nil
			for _, name := range f.sweeps {
				sw, ok := byName[name]
				if !ok {
					t.Fatalf("full spec has no sweep %q", name)
				}
				if f.engine != "" {
					if !slices.Contains(sw.Engines, f.engine) {
						t.Fatalf("sweep %q does not run %s", name, f.engine)
					}
					sw.Engines = []string{f.engine}
				}
				s.Sweeps = append(s.Sweeps, sw)
			}
			smokeRun(t, s)
		})
	}
}

// smokeRun executes every cell of s once at a tiny scale and checks each
// sample is plausible for the kind of cell it is.
func smokeRun(t *testing.T, s Spec) {
	t.Helper()
	rep, err := RunSpec(s, RunOptions{N: 3000, Repeats: 1, Env: &Env{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("no cells ran")
	}
	for _, c := range rep.Cells {
		smp := c.Samples[0]
		if smp.ThroughputTPS <= 0 || smp.Results <= 0 {
			t.Errorf("%s: implausible sample %+v", c.ID, smp)
		}
		if c.Latency && smp.P99NS <= 0 {
			t.Errorf("%s: latency cell without p99", c.ID)
		}
		if c.Instrumented && (smp.LookupShare <= 0 || smp.LookupShare+smp.MatchShare > 1.0001) {
			t.Errorf("%s: lookup %g + match %g shares outside (0, 1]", c.ID, smp.LookupShare, smp.MatchShare)
		}
	}
}

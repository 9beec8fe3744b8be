package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oij/internal/harness"
	"oij/internal/perf"
)

func TestResolveSpecBuiltinAndFile(t *testing.T) {
	for _, name := range perf.BuiltinSpecNames() {
		s, err := resolveSpec(name)
		if err != nil || s.Name != name {
			t.Fatalf("builtin %s: %v (got %q)", name, err, s.Name)
		}
	}

	// A spec written to JSON loads back identically through the file path.
	want, err := perf.BuiltinSpec("smoke")
	if err != nil {
		t.Fatal(err)
	}
	want.Name = "custom"
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "custom.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resolveSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spec changed across file round-trip:\n%+v\n%+v", want, got)
	}

	if _, err := resolveSpec("no-such-spec"); err == nil {
		t.Fatal("expected error for unknown spec name")
	}
	if _, err := resolveSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing spec file")
	}
}

// testSpecFile writes a minimal one-cell spec and returns its path.
func testSpecFile(t *testing.T, dir string) string {
	t.Helper()
	spec := perf.Spec{
		SpecVersion: perf.CurrentSpecVersion,
		Name:        "clitest",
		N:           3000,
		Repeats:     2,
		Sweeps: []perf.Sweep{{
			Name: "t", Workload: "default", Engines: []string{harness.KeyOIJ},
			Threads: []int{2}, Gate: true,
		}},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepGateEndToEnd records a baseline and gates a fresh run against
// it through the CLI. The baseline is doctored far below what the machine
// can do (throughput deflated, p99s inflated), so the gate must pass on
// any host: gating one 2-sample run against another at the 10% threshold
// would fail on ordinary run-to-run noise.
func TestSweepGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	specPath := testSpecFile(t, dir)
	baseline := filepath.Join(dir, "BENCH_seed.json")

	var out, errOut bytes.Buffer
	if code := runSweepOrBaseline("baseline", []string{"-spec", specPath, "-out", baseline, "-q"}, &out, &errOut); code != 0 {
		t.Fatalf("baseline exit %d: %s%s", code, out.String(), errOut.String())
	}
	rep, err := perf.ReadReport(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || len(rep.Cells[0].Samples) != 2 {
		t.Fatalf("unexpected baseline shape: %+v", rep.Cells)
	}

	for ci := range rep.Cells {
		for si := range rep.Cells[ci].Samples {
			smp := &rep.Cells[ci].Samples[si]
			smp.ThroughputTPS /= 1000
			smp.P50NS *= 1000
			smp.P99NS *= 1000
			smp.P999NS *= 1000
		}
	}
	floor := filepath.Join(dir, "BENCH_floor.json")
	if err := rep.WriteFile(floor); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := runGate([]string{"-baseline", floor, "-q"}, &out, &errOut); code != 0 {
		t.Fatalf("gate exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "gate: PASS") {
		t.Fatalf("missing PASS banner:\n%s", out.String())
	}
}

// TestGateFailsOnDoctoredBaseline inflates the committed baseline's
// throughput far beyond what the machine can do; the gate must exit
// nonzero — the same signal a genuinely slowed hot path produces.
func TestGateFailsOnDoctoredBaseline(t *testing.T) {
	dir := t.TempDir()
	specPath := testSpecFile(t, dir)
	baseline := filepath.Join(dir, "BENCH_seed.json")

	var out, errOut bytes.Buffer
	if code := runSweepOrBaseline("baseline", []string{"-spec", specPath, "-out", baseline, "-q"}, &out, &errOut); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut.String())
	}
	rep, err := perf.ReadReport(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range rep.Cells {
		for si := range rep.Cells[ci].Samples {
			rep.Cells[ci].Samples[si].ThroughputTPS *= 1000
		}
	}
	if err := rep.WriteFile(baseline); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	code := runGate([]string{"-baseline", baseline, "-q"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("gate exit %d against 1000x-inflated baseline, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "gate: FAIL") || !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("missing FAIL output:\n%s", out.String())
	}
}

// TestReportPrintsMarkdown renders a recorded report: one section per
// sweep, its varying axes as columns, every metric as median [q1, q3].
func TestReportPrintsMarkdown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_r.json")
	var out, errOut bytes.Buffer
	if code := runSweepOrBaseline("sweep", []string{"-spec", testSpecFile(t, dir), "-out", path, "-q"}, &out, &errOut); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := runReport([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("report exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"## t\n", "| engine | throughput | unbalancedness |", "| key-oij | ", "/s [", "threads 2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if code := runReport(nil, &out, &errOut); code != 2 {
		t.Fatalf("no argument: exit %d, want 2", code)
	}
	if code := runReport([]string{filepath.Join(dir, "missing.json")}, &out, &errOut); code != 1 {
		t.Fatalf("missing report: exit %d, want 1", code)
	}
}

func TestGateUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runGate(nil, &out, &errOut); code != 2 {
		t.Fatalf("missing -baseline: exit %d, want 2", code)
	}
	if code := runGate([]string{"-baseline", "does-not-exist.json"}, &out, &errOut); code != 2 {
		t.Fatalf("unreadable baseline: exit %d, want 2", code)
	}
	if code := runSweepOrBaseline("sweep", []string{"-spec", "no-such"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown spec: exit %d, want 2", code)
	}
}

func TestRunSpecsListsBuiltins(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runSpecs(&out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, name := range perf.BuiltinSpecNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("specs output missing %q:\n%s", name, out.String())
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"oij/internal/prof"
)

// Package-level burn functions with stable symbols: the candidate run
// spins profdiffBurnHotLoop so the diff must attribute the regression to
// it by name, while the baseline spins a different function. Each inner
// loop works on a local and stores to the sink once per pass, so the
// race detector instruments one write per pass rather than every
// iteration and its runtime frames stay below the burn loop's.
var profdiffSink uint64

//go:noinline
func profdiffBurnHotLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		x := profdiffSink
		for i := 0; i < 1<<14; i++ {
			x = x*2654435761 + uint64(i)
		}
		profdiffSink = x
	}
}

//go:noinline
func profdiffBurnBaseline(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		x := profdiffSink
		for i := 0; i < 1<<14; i++ {
			x ^= uint64(i) * 0x9e3779b97f4a7c15
		}
		profdiffSink = x
	}
}

// captureBurn records a CPU profile while burn spins, returning the raw
// pprof bytes. Skips the test if another CPU profile is already running.
func captureBurn(t *testing.T, burn func(<-chan struct{})) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { burn(stop); close(done) }()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	<-done
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// TestProfDiffAttributesRegression is the golden attribution test: a
// deliberate hot loop burned only in the candidate profile must top the
// ranked delta, and gating on its symbol must trip the nonzero exit.
func TestProfDiffAttributesRegression(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.pprof")
	candPath := filepath.Join(dir, "cand.pprof")
	if err := os.WriteFile(basePath, captureBurn(t, profdiffBurnBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(candPath, captureBurn(t, profdiffBurnHotLoop), 0o644); err != nil {
		t.Fatal(err)
	}

	// Ungated: reports the regression but passes.
	var out bytes.Buffer
	if code := runProfDiff([]string{basePath, candPath}, &out, io.Discard); code != 0 {
		t.Fatalf("ungated profdiff exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("short output:\n%s", out.String())
	}
	// Line 0 is the header, line 1 the column row; line 2 is the top
	// ranked delta — the burned function must be there.
	if !strings.Contains(lines[2], "profdiffBurnHotLoop") {
		t.Fatalf("hot loop not top of ranked delta:\n%s", out.String())
	}

	// Gated on the offending symbol: exit 1 with a FAIL verdict.
	out.Reset()
	code := runProfDiff([]string{"-gate", "profdiffBurnHotLoop", basePath, candPath}, &out, io.Discard)
	if code != 1 {
		t.Fatalf("gated profdiff exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "profdiffBurnHotLoop") {
		t.Fatalf("gated verdict:\n%s", out.String())
	}

	// Gated on a symbol that did NOT regress: passes.
	out.Reset()
	if code := runProfDiff([]string{"-gate", "profdiffBurnBaseline", basePath, candPath}, &out, io.Discard); code != 0 {
		t.Fatalf("clean gate exit %d:\n%s", code, out.String())
	}
}

// TestProfDiffRingDir exercises the ring-directory argument form: the
// candidate is a profile ring whose CPU entries are merged before
// diffing.
func TestProfDiffRingDir(t *testing.T) {
	baseRaw := captureBurn(t, profdiffBurnBaseline)
	candRaw := captureBurn(t, profdiffBurnHotLoop)

	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.pprof")
	if err := os.WriteFile(basePath, baseRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	ring := filepath.Join(dir, "ring")
	if err := os.Mkdir(ring, 0o755); err != nil {
		t.Fatal(err)
	}
	entries := []prof.Entry{
		{Seq: 0, Kind: "cpu", File: "000000-cpu-periodic.pprof"},
		{Seq: 1, Kind: "heap", File: "000001-heap-periodic.pprof"},
		{Seq: 2, Kind: "cpu", File: "000002-cpu-periodic.pprof"},
	}
	for _, e := range entries {
		data := candRaw
		if e.Kind == "heap" {
			data = []byte("not read: non-cpu entries are skipped")
		}
		if err := os.WriteFile(filepath.Join(ring, e.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	man, _ := json.Marshal(map[string]any{"next_seq": 3, "entries": entries})
	if err := os.WriteFile(filepath.Join(ring, "MANIFEST.json"), man, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code := runProfDiff([]string{"-gate", "profdiffBurnHotLoop", basePath, ring}, &out, io.Discard)
	if code != 1 {
		t.Fatalf("ring-dir profdiff exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "2 cpu slices merged") {
		t.Fatalf("ring merge description missing:\n%s", out.String())
	}
}

// TestProfDiffUsageErrors pins the usage exit code.
func TestProfDiffUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"only-one.pprof"},
		{"-gate", "([", "a.pprof", "b.pprof"},
		{"/does/not/exist.pprof", "/does/not/exist2.pprof"},
	} {
		if code := runProfDiff(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("runProfDiff(%q) exit %d, want 2", args, code)
		}
	}
}

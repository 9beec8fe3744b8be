package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/server"
)

func TestParseDefaults(t *testing.T) {
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:7781" {
		t.Errorf("addr = %q", o.addr)
	}
	if o.cfg.Algorithm != harness.ScaleOIJ || o.cfg.Engine.Joiners != 4 {
		t.Errorf("engine = %s/%d", o.cfg.Algorithm, o.cfg.Engine.Joiners)
	}
	if w := o.cfg.Engine.Window; w.Pre != time.Minute.Microseconds() || w.Lateness != time.Second.Microseconds() {
		t.Errorf("window = %+v", w)
	}
	if o.cfg.Admission != server.AdmissionBlock {
		t.Errorf("admission = %q", o.cfg.Admission)
	}
	if o.cfg.RequestDeadline != 0 || o.cfg.MemCapProbes != 0 || o.cfg.SlowConsumerGrace != 0 {
		t.Errorf("overload knobs not zero by default: %+v", o.cfg)
	}
	// The default configuration must actually construct a server.
	srv, err := server.New(o.cfg)
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	srv.Shutdown()
}

func TestParseOverloadFlags(t *testing.T) {
	o, err := parseArgs([]string{
		"-admission", "reject",
		"-deadline", "250ms",
		"-mem-cap", "100000",
		"-slow-grace", "2s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Admission != server.AdmissionReject {
		t.Errorf("admission = %q", o.cfg.Admission)
	}
	if o.cfg.RequestDeadline != 250*time.Millisecond {
		t.Errorf("deadline = %v", o.cfg.RequestDeadline)
	}
	if o.cfg.MemCapProbes != 100000 {
		t.Errorf("mem-cap = %d", o.cfg.MemCapProbes)
	}
	if o.cfg.SlowConsumerGrace != 2*time.Second {
		t.Errorf("slow-grace = %v", o.cfg.SlowConsumerGrace)
	}
}

func TestParseTraceFlags(t *testing.T) {
	o, err := parseArgs([]string{
		"-trace-sample", "16",
		"-trace-ring", "128",
		"-flight-dump", "/tmp/oij-flight.json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.TraceSampleN != 16 {
		t.Errorf("trace-sample = %d", o.cfg.TraceSampleN)
	}
	if o.cfg.TraceRing != 128 {
		t.Errorf("trace-ring = %d", o.cfg.TraceRing)
	}
	if o.cfg.FlightDumpPath != "/tmp/oij-flight.json" {
		t.Errorf("flight-dump = %q", o.cfg.FlightDumpPath)
	}
	// Tracing off by default: sampling must not silently turn itself on.
	d, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.TraceSampleN != 0 || d.cfg.FlightDumpPath != "" {
		t.Errorf("tracing enabled by default: %+v", d.cfg)
	}
}

func TestParseBadAdmissionRejectedByServer(t *testing.T) {
	o, err := parseArgs([]string{"-admission", "panic-wildly"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.New(o.cfg); err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("bad policy accepted: %v", err)
	}
}

func TestParseSQL(t *testing.T) {
	o, err := parseArgs([]string{"-sql",
		"SELECT sum(amount) OVER w FROM requests WINDOW w AS (UNION orders PARTITION BY user ORDER BY ts ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW LATENESS 5s)",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Engine.Window.Pre != time.Hour.Microseconds() {
		t.Errorf("pre = %d", o.cfg.Engine.Window.Pre)
	}
	if o.cfg.Engine.Window.Lateness != (5 * time.Second).Microseconds() {
		t.Errorf("lateness = %d", o.cfg.Engine.Window.Lateness)
	}
	if !strings.Contains(o.banner, "requests") || !strings.Contains(o.banner, "orders") {
		t.Errorf("banner = %q", o.banner)
	}
}

func TestParseExactMode(t *testing.T) {
	o, err := parseArgs([]string{"-exact"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Engine.Mode != engine.OnWatermark {
		t.Errorf("mode = %v", o.cfg.Engine.Mode)
	}
}

func TestParseErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-agg", "frobnicate"},
		{"-sql", "SELECT nonsense"},
		{"stray-positional"},
		{"-deadline", "not-a-duration"},
		{"-mem-cap", "NaN"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q): expected error", args)
		}
	}
}

func TestParseProfilingFlags(t *testing.T) {
	o, err := parseArgs([]string{
		"-profile-dir", "/tmp/oij-prof",
		"-profile-period", "30s",
		"-profile-cpu-slice", "1s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.ProfileDir != "/tmp/oij-prof" {
		t.Errorf("profile-dir = %q", o.cfg.ProfileDir)
	}
	if o.cfg.ProfilePeriod != 30*time.Second {
		t.Errorf("profile-period = %v", o.cfg.ProfilePeriod)
	}
	if o.cfg.ProfileCPUSlice != time.Second {
		t.Errorf("profile-cpu-slice = %v", o.cfg.ProfileCPUSlice)
	}

	// Dir alone enables profiling on the default 2s-in-60s duty cycle.
	o, err = parseArgs([]string{"-profile-dir", "/tmp/oij-prof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.ProfileDir == "" || o.cfg.ProfilePeriod != time.Minute || o.cfg.ProfileCPUSlice != 2*time.Second {
		t.Errorf("dir-only profiling config: %+v", o.cfg)
	}

	// Profiling off by default.
	d, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.ProfileDir != "" {
		t.Errorf("profiling enabled by default: %q", d.cfg.ProfileDir)
	}
}

func TestParseProfilingErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-profile-period", "30s"},                         // period without dir
		{"-profile-cpu-slice", "1s"},                       // slice without dir
		{"-profile-dir", "d", "-profile-period", "-10s"},   // negative period
		{"-profile-dir", "d", "-profile-cpu-slice", "-1s"}, // negative slice
		{"-profile-dir", "d", "-profile-period", "1s",
			"-profile-cpu-slice", "2s"}, // slice >= period
		{"-profile-dir", "d", "-profile-cpu-slice", "90s"}, // slice >= default period
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q): expected error", args)
		}
	}
}

func TestParseReplicationFlags(t *testing.T) {
	o, err := parseArgs([]string{
		"-wal", "/tmp/oij.wal",
		"-replicate-to", ":7783",
		"-lease", "2s",
		"-max-repl-lag", "1048576",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.ReplListenAddr != ":7783" {
		t.Errorf("replicate-to = %q", o.cfg.ReplListenAddr)
	}
	if o.cfg.ReplLease != 2*time.Second {
		t.Errorf("lease = %v", o.cfg.ReplLease)
	}
	if o.cfg.MaxReplLag != 1048576 {
		t.Errorf("max-repl-lag = %d", o.cfg.MaxReplLag)
	}

	// A lease must be positive: there is no "auto-failover off" mode.
	if _, err := parseArgs([]string{
		"-wal", "/tmp/oij.wal",
		"-standby-of", "primary:7783",
		"-lease", "-1s",
	}, io.Discard); err == nil {
		t.Error("negative -lease accepted")
	}
	o, err = parseArgs([]string{
		"-wal", "/tmp/oij.wal",
		"-standby-of", "primary:7783",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.StandbyOf != "primary:7783" || o.cfg.ReplLease != 0 {
		t.Errorf("standby-of = %q, lease = %v", o.cfg.StandbyOf, o.cfg.ReplLease)
	}
}

func TestParseReplicationErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-replicate-to", ":7783"},                                  // no WAL
		{"-standby-of", "primary:7783"},                             // no WAL
		{"-wal", "w", "-replicate-to", ":1", "-standby-of", "p:2"},  // both roles
		{"-lease", "2s"},                                            // lease without replication
		{"-max-repl-lag", "1"},                                      // lag alarm without replication
		{"-wal", "w", "-replicate-to", ":1", "-max-repl-lag", "-5"}, // negative lag
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q): expected error", args)
		}
	}
}

// TestParseRejectsOutOfRange: a negative value is an error, never a
// silent "off", and the joiner count must be at least 1.
func TestParseRejectsOutOfRange(t *testing.T) {
	repl := []string{"-wal", "w", "-replicate-to", ":1"}
	for _, args := range [][]string{
		{"-parallel", "0"},
		{"-parallel", "-2"},
		{"-deadline", "-1ms"},
		{"-mem-cap", "-1"},
		{"-trace-sample", "-1"},
		{"-trace-ring", "-1"},
		{"-slo-p99", "-1ms"},
		{"-slo-shed-rate", "-0.5"},
		{"-slo-lag", "-1s"},
		{"-slow-grace", "-1s"},
		append([]string{"-lease", "-1s"}, repl...),
		append([]string{"-max-repl-lag", "-5"}, repl...),
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q): expected error", args)
		}
	}
}

// TestTooManyJoinersIsAnError: a joiner count past Scale-OIJ's 64-joiner
// mask parses, and the server rejects it with an error instead of
// panicking.
func TestTooManyJoinersIsAnError(t *testing.T) {
	o, err := parseArgs([]string{"-parallel", "65"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if srv, err := server.New(o.cfg); err == nil {
		srv.Shutdown()
		t.Error("server accepted 65 Scale-OIJ joiners")
	}
}

// TestFlagTableMatchesREADME: the README's flag table names every flag
// oijd defines, and no flag it does not. The flag names come from the
// FlagSet's own usage listing.
func TestFlagTableMatchesREADME(t *testing.T) {
	var usage strings.Builder
	if _, err := parseArgs([]string{"-h"}, &usage); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	defined := map[string]bool{}
	for _, line := range strings.Split(usage.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			defined[strings.Fields(line)[0][1:]] = true
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	documented := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	if len(defined) == 0 || len(documented) == 0 {
		t.Fatalf("found %d flags and %d table rows", len(defined), len(documented))
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("flag -%s is missing from the README flag table", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("README flag table names -%s, which oijd does not define", name)
		}
	}
}

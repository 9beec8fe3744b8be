package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/perf"
	"oij/internal/server"
	"oij/internal/workload/pattern"
)

// runSim drives one scenario profile and writes its timeline report.
func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	eng := fs.String("engine", harness.ScaleOIJ, "engine variant to drive (in-process mode)")
	joiners := fs.Int("joiners", 4, "joiner threads (in-process mode)")
	mode := fs.String("mode", "arrival", "emission mode: arrival or watermark")
	timeScale := fs.Float64("time-scale", 0, "override the profile's time scale (>0)")
	maxTuples := fs.Int("max-tuples", 0, "truncate the run after this many tuples")
	unpaced := fs.Bool("unpaced", false, "disable wall pacing: replay at full speed (latency columns stay zero)")
	addr := fs.String("addr", "", "drive a live oijd at this address instead of an in-process engine")
	admin := fs.String("admin", "", "with -addr: scrape this admin base URL's /statusz per interval for sheds and lag")
	out := fs.String("out", "", "output path (default: SIM_<profile-name>.json)")
	checkSLO := fs.Bool("check-slo", false, "exit 1 when any interval breaches the profile's SLO")
	quiet := fs.Bool("q", false, "suppress per-interval progress")

	serve := fs.Bool("serve", false,
		"drive an in-process oijd (full serving stack: admission, memory guard, SLO) over loopback instead of a bare engine; SLO thresholds come from the profile")
	admission := fs.String("admission", server.AdmissionBlock, "with -serve: admission policy (block, shed-probes, reject)")
	memCap := fs.Int64("mem-cap", 0, "with -serve: buffered-probe cap (0 disables the memory guard)")
	deadline := fs.Duration("deadline", 0, "with -serve: per-request NACK deadline (0 disables)")
	utilEpoch := fs.Duration("util-epoch", 0, "with -serve: sampler epoch (0 keeps the server default of 1s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "oijbench sim: exactly one profile path required (see profiles/)")
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)

	var emitMode engine.EmitMode
	switch *mode {
	case "arrival":
		emitMode = engine.OnArrival
	case "watermark":
		emitMode = engine.OnWatermark
	default:
		fmt.Fprintf(stderr, "oijbench sim: unknown -mode %q (want arrival or watermark)\n", *mode)
		return 2
	}

	prof, err := pattern.LoadProfile(path)
	if err != nil {
		fmt.Fprintf(stderr, "oijbench sim: %v\n", err)
		return 2
	}
	sc, err := pattern.Compile(prof, filepath.Dir(path))
	if err != nil {
		fmt.Fprintf(stderr, "oijbench sim: %v\n", err)
		return 2
	}

	var serveCfg *server.Config
	if *serve {
		if *addr != "" {
			fmt.Fprintln(stderr, "oijbench sim: -serve and -addr are mutually exclusive")
			return 2
		}
		cfg := server.Config{
			Admission:       *admission,
			RequestDeadline: *deadline,
			MemCapProbes:    *memCap,
			UtilEpoch:       *utilEpoch,
		}
		// The profile's SLO doubles as the server's /healthz thresholds,
		// so /healthz scores the same targets the report does.
		if slo := prof.SLO; slo != nil {
			cfg.SLOP99 = time.Duration(slo.P99Ms * float64(time.Millisecond))
			cfg.SLOWatermarkLag = time.Duration(slo.MaxLagS * float64(time.Second))
		}
		serveCfg = &cfg
	}

	var progress io.Writer
	if !*quiet {
		progress = stdout
	}
	rep, err := perf.RunSim(sc, perf.SimOptions{
		Engine:    *eng,
		Joiners:   *joiners,
		Mode:      emitMode,
		TimeScale: *timeScale,
		Addr:      *addr,
		AdminURL:  strings.TrimSuffix(*admin, "/"),
		Serve:     serveCfg,
		Unpaced:   *unpaced,
		MaxTuples: *maxTuples,
		Progress:  progress,
		GitSHA:    gitSHA(),
	})
	if err != nil {
		fmt.Fprintf(stderr, "oijbench sim: %v\n", err)
		return 1
	}

	outPath := *out
	if outPath == "" {
		outPath = "SIM_" + prof.Name + ".json"
	}
	if err := rep.WriteFile(outPath); err != nil {
		fmt.Fprintf(stderr, "oijbench sim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "oijbench: wrote %s (%d intervals, %d tuples, %d results, wall %.1fs, slo breaches %d)\n",
		outPath, len(rep.Intervals), rep.Tuples, rep.Results,
		float64(rep.WallElapsedNS)/1e9, rep.SLOBreachedIntervals)
	if *checkSLO && rep.SLOBreachedIntervals > 0 {
		fmt.Fprintf(stdout, "oijbench sim: SLO FAIL (%d breached intervals: %s)\n",
			rep.SLOBreachedIntervals, breachSummary(rep))
		return 1
	}
	return 0
}

// breachSummary renders per-dimension breach counts across all intervals,
// e.g. "p99_latency=10 watermark_lag=4", so an exit-1 run says which
// dimensions failed without opening the report.
func breachSummary(rep *perf.SimReport) string {
	counts := map[string]int{}
	var order []string
	for _, iv := range rep.Intervals {
		for _, dim := range iv.SLOBreaches {
			if counts[dim] == 0 {
				order = append(order, dim)
			}
			counts[dim]++
		}
	}
	parts := make([]string, 0, len(order))
	for _, dim := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", dim, counts[dim]))
	}
	return strings.Join(parts, " ")
}

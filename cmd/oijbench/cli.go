package main

import (
	"flag"
	"fmt"
	"io"
	"os/exec"
	"strings"

	"oij/internal/perf"
)

// This file implements the sweep/baseline/gate subcommands on top of
// internal/perf. Each run* function takes its argument slice and output
// writers and returns a process exit code, so the unit tests drive the
// exact code paths main dispatches to.

var usageText = `Usage:
  oijbench sweep    [-spec name|file.json] [-tag t] [-out BENCH_t.json] [-n N] [-repeats R] [-q]
                    [-profiler [-profile-dir dir]]
  oijbench baseline [-spec name|file.json] [-out BENCH_seed.json] ...
  oijbench gate     -baseline BENCH_seed.json [-spec name|file.json] [-threshold 0.10]
                    [-p99-threshold 0.25] [-no-normalize] [-flight-recorder] [-telemetry]
                    [-profiler [-profile-dir dir]]
                    [-out BENCH_fresh.json] [-n N] [-repeats R] [-q]
  oijbench sim      [-engine e] [-joiners J] [-mode arrival|watermark] [-time-scale S]
                    [-max-tuples N] [-unpaced] [-addr host:port [-admin url]]
                    [-serve [-admission p] [-mem-cap N] [-deadline d] [-util-epoch d]
                     [-controller [-ctl-min-joiners N] [-ctl-max-joiners N] [-ctl-p99 d]]
                     [-flight-out FLIGHT.json]]
                    [-out SIM_name.json] [-check-slo] [-q] profile.json
  oijbench simdiff  [-dim name] BASE_SIM.json CANDIDATE_SIM.json
  oijbench profdiff [-top N] [-threshold pp] [-gate regexp] BASE CANDIDATE
                    (each a pprof file or a continuous-profiling ring dir)
  oijbench report   BENCH_x.json
  oijbench specs

Builtin sweep specs: ` + strings.Join(perf.BuiltinSpecNames(), ", ") + `.
See EXPERIMENTS.md for the sweep spec format and the gate's decision rule.`

// resolveSpec maps a -spec argument to a builtin name or a JSON file path.
func resolveSpec(arg string) (perf.Spec, error) {
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		return perf.LoadSpec(arg)
	}
	return perf.BuiltinSpec(arg)
}

// gitSHA best-effort resolves the current commit for report provenance.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sweepFlags are the options shared by sweep and baseline.
type sweepFlags struct {
	spec       string
	tag        string
	out        string
	n          int
	repeats    int
	quiet      bool
	profiler   bool
	profileDir string
}

func bindSweepFlags(fs *flag.FlagSet) *sweepFlags {
	var f sweepFlags
	fs.StringVar(&f.spec, "spec", "seed", "builtin spec name or spec JSON path")
	fs.StringVar(&f.tag, "tag", "", "report tag (default: the spec's name)")
	fs.StringVar(&f.out, "out", "", "output path (default: BENCH_<tag>.json)")
	fs.IntVar(&f.n, "n", 0, "override tuples per workload")
	fs.IntVar(&f.repeats, "repeats", 0, "override per-cell repeats")
	fs.BoolVar(&f.quiet, "q", false, "suppress per-sample progress")
	fs.BoolVar(&f.profiler, "profiler", false, "attach the continuous profiler to the sweep, leaving a capture ring behind for `oijbench profdiff`")
	fs.StringVar(&f.profileDir, "profile-dir", "", "capture-ring directory for -profiler (default oij-prof-ring)")
	return &f
}

// resolve fills the tag/out defaults after parsing.
func (f *sweepFlags) resolve(spec perf.Spec) {
	if f.tag == "" {
		f.tag = spec.Name
	}
	if f.out == "" {
		f.out = "BENCH_" + f.tag + ".json"
	}
}

// runSweepOrBaseline records a report; baseline differs only in its
// default output name, so a freshly recorded reference is exactly a sweep.
func runSweepOrBaseline(name string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := bindSweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := resolveSpec(f.spec)
	if err != nil {
		fmt.Fprintf(stderr, "oijbench %s: %v\n", name, err)
		return 2
	}
	if name == "baseline" && f.tag == "" {
		f.tag = "seed"
	}
	f.resolve(spec)

	var progress io.Writer
	if !f.quiet {
		progress = stdout
	}
	if f.profileDir != "" && !f.profiler {
		fmt.Fprintf(stderr, "oijbench %s: -profile-dir needs -profiler\n", name)
		fs.Usage()
		return 2
	}
	rep, err := perf.RunSpec(spec, perf.RunOptions{
		Tag: f.tag, GitSHA: gitSHA(), N: f.n, Repeats: f.repeats, Progress: progress,
		Profiler: f.profiler, ProfileDir: f.profileDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "oijbench %s: %v\n", name, err)
		return 1
	}
	if err := rep.WriteFile(f.out); err != nil {
		fmt.Fprintf(stderr, "oijbench %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "oijbench: wrote %s (%d cells x %d repeats, calibration %.0f ops/us)\n",
		f.out, len(rep.Cells), rep.Spec.Repeats, rep.Env.CalibrationOpsPerUS)
	return 0
}

// runGate re-measures the baseline's cells and compares.
func runGate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline BENCH_*.json to gate against (required)")
	specArg := fs.String("spec", "", "spec to run (default: the baseline's embedded spec)")
	threshold := fs.Float64("threshold", 0.10, "max tolerated median throughput drop (fraction)")
	p99Threshold := fs.Float64("p99-threshold", 0.25, "max tolerated median p99 inflation (fraction)")
	noNormalize := fs.Bool("no-normalize", false, "disable calibration-ratio normalization")
	out := fs.String("out", "", "also write the fresh report to this path")
	n := fs.Int("n", 0, "override tuples per workload")
	repeats := fs.Int("repeats", 0, "override per-cell repeats")
	quiet := fs.Bool("q", false, "suppress per-sample progress")
	flightRec := fs.Bool("flight-recorder", false, "attach an always-on flight recorder to the fresh run, gating the recorder's overhead against the recorder-free baseline")
	telemetry := fs.Bool("telemetry", false, "attach the oijd telemetry layer (per-tuple hot-key sketch + background timeline sampler) to the fresh run, gating its overhead against the telemetry-free baseline")
	profiler := fs.Bool("profiler", false, "attach the continuous profiler to the fresh run (periodic CPU slices + heap/mutex/block snapshots into a ring), gating its duty-cycle overhead against the profiler-free baseline")
	profileDir := fs.String("profile-dir", "", "capture-ring directory for -profiler (default oij-prof-ring); feed it to `oijbench profdiff` afterwards")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath == "" {
		fmt.Fprintln(stderr, "oijbench gate: -baseline is required")
		fs.Usage()
		return 2
	}
	base, err := perf.ReadReport(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "oijbench gate: %v\n", err)
		return 2
	}
	spec := base.Spec
	if *specArg != "" {
		if spec, err = resolveSpec(*specArg); err != nil {
			fmt.Fprintf(stderr, "oijbench gate: %v\n", err)
			return 2
		}
	}

	var progress io.Writer
	if !*quiet {
		progress = stdout
	}
	if *profileDir != "" && !*profiler {
		fmt.Fprintln(stderr, "oijbench gate: -profile-dir needs -profiler")
		fs.Usage()
		return 2
	}
	fresh, err := perf.RunSpec(spec, perf.RunOptions{
		Tag: "gate", GitSHA: gitSHA(), N: *n, Repeats: *repeats, Progress: progress,
		FlightRecorder: *flightRec, Telemetry: *telemetry,
		Profiler: *profiler, ProfileDir: *profileDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "oijbench gate: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := fresh.WriteFile(*out); err != nil {
			fmt.Fprintf(stderr, "oijbench gate: %v\n", err)
			return 1
		}
	}

	opts := perf.GateOptions{
		MaxThroughputDrop: *threshold,
		MaxP99Inflation:   *p99Threshold,
		Normalize:         !*noNormalize,
	}
	g := perf.Gate(base, fresh, opts)
	fmt.Fprintf(stdout, "\ngate: fresh run vs %s (recorded %s, git %.12s)\n",
		*baselinePath, base.CreatedAt.Format("2006-01-02"), base.GitSHA)
	g.WriteTable(stdout)
	if g.OK() {
		fmt.Fprintf(stdout, "gate: PASS (%d gated cells)\n", len(g.Verdicts))
		return 0
	}
	fmt.Fprintf(stdout, "gate: FAIL (%d regressions, %d missing cells)\n", g.Regressions, len(g.MissingCells))
	return 1
}

// runReport prints a recorded report as one Markdown table per sweep.
func runReport(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "oijbench report: want exactly one BENCH_*.json argument")
		return 2
	}
	rep, err := perf.ReadReport(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "oijbench report: %v\n", err)
		return 1
	}
	rep.WriteMarkdown(stdout)
	return 0
}

// runSpecs prints the builtin specs and their cell counts.
func runSpecs(stdout, stderr io.Writer) int {
	for _, name := range perf.BuiltinSpecNames() {
		spec, err := perf.BuiltinSpec(name)
		if err != nil {
			fmt.Fprintf(stderr, "oijbench specs: %v\n", err)
			return 1
		}
		cells, err := spec.Cells()
		if err != nil {
			fmt.Fprintf(stderr, "oijbench specs: %v\n", err)
			return 1
		}
		gated := 0
		for _, c := range cells {
			if c.Gated {
				gated++
			}
		}
		fmt.Fprintf(stdout, "%-8s %3d cells (%d gated) x %d repeats, n=%d\n",
			name, len(cells), gated, spec.Repeats, spec.N)
	}
	return 0
}

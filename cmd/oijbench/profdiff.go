package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"oij/internal/prof"
)

// runProfDiff ranks functions by how much of the profile they gained
// between two pprof files or continuous-profiling ring directories (whose
// CPU slices are merged) — the regression-attribution step behind the
// profiling-overhead CI job. It wraps `go tool pprof -top -normalize
// -diff_base`, which scales the candidate to the baseline's total, so
// captures of different lengths compare. A function whose flat share grew
// by more than -threshold percentage points is a finding; a finding
// matching -gate FAILs the diff with exit 1.
func runProfDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("profdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 15, "rows shown, ranked by flat-share delta")
	threshold := fs.Float64("threshold", 1.0, "flat-share growth (percentage points) that makes a function a finding")
	gate := fs.String("gate", "", "regexp over function names: a finding matching it fails the diff (exit 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "oijbench profdiff: exactly two arguments required: BASE CANDIDATE (pprof file or profile-ring dir)")
		fs.Usage()
		return 2
	}
	var gateRE *regexp.Regexp
	if *gate != "" {
		re, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintf(stderr, "oijbench profdiff: bad -gate: %v\n", err)
			return 2
		}
		gateRE = re
	}

	var files [2][]string
	var desc [2]string
	for i := range files {
		var err error
		if files[i], desc[i], err = profileFiles(fs.Arg(i)); err != nil {
			fmt.Fprintf(stderr, "oijbench profdiff: %s: %v\n", fs.Arg(i), err)
			return 2
		}
	}
	rows, err := pprofDiff(files[0], files[1])
	if err != nil {
		fmt.Fprintf(stderr, "oijbench profdiff: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "oijbench profdiff: base %s, candidate %s\n", desc[0], desc[1])
	fmt.Fprintf(stdout, "%-44s %9s %9s\n", "function (by flat-share delta)", "Δflat pp", "Δcum pp")
	var findings []string
	for i, r := range rows {
		mark := " "
		if r.flat > *threshold {
			mark = "!"
			if gateRE != nil && gateRE.MatchString(r.name) {
				findings = append(findings, r.name)
			}
		}
		if i < *top {
			fmt.Fprintf(stdout, "%s %-42s %+9.2f %+9.2f\n", mark, truncFunc(r.name, 42), r.flat, r.cum)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stdout, "oijbench profdiff: FAIL — %d gated function(s) grew beyond %.1fpp: %s\n",
			len(findings), *threshold, strings.Join(findings, ", "))
		return 1
	}
	fmt.Fprintf(stdout, "oijbench profdiff: PASS (no gated function grew beyond %.1fpp)\n", *threshold)
	return 0
}

// diffRow is one function's change, in percentage points of the baseline
// total.
type diffRow struct {
	name      string
	flat, cum float64
}

// pprofTotalRE captures the total every `go tool pprof -top` share is of.
var pprofTotalRE = regexp.MustCompile(`of (\S+) total`)

// pprofDiff runs `go tool pprof -top -diff_base` over the files and ranks
// its rows by signed flat-share delta, largest growth first. The tool
// merges several candidate files itself but keeps only the last of
// repeated -diff_base flags, so a multi-file baseline is first merged into
// one temporary profile with `go tool pprof -proto`.
func pprofDiff(base, cand []string) ([]diffRow, error) {
	if len(base) > 1 {
		tmp, err := os.CreateTemp("", "profdiff-base-*.pb.gz")
		if err != nil {
			return nil, err
		}
		tmp.Close()
		defer os.Remove(tmp.Name())
		if _, err := goToolPprof(append([]string{"-proto", "-output=" + tmp.Name()}, base...)...); err != nil {
			return nil, err
		}
		base = []string{tmp.Name()}
	}
	out, err := goToolPprof(append([]string{"-top", "-normalize", "-unit=ns", "-nodefraction=0", "-diff_base=" + base[0]}, cand...)...)
	if err != nil {
		return nil, err
	}
	m := pprofTotalRE.FindSubmatch(out)
	if m == nil {
		return nil, fmt.Errorf("go tool pprof printed no total:\n%s", out)
	}
	total, err := pprofValue(string(m[1]))
	if err != nil {
		return nil, fmt.Errorf("go tool pprof total %q: %w", m[1], err)
	}
	if total == 0 {
		return nil, nil // nothing sampled: no function can have grown
	}
	// A row is "flat flat% sum% cum cum% name"; every other line fails
	// the shape check.
	var rows []diffRow
	for _, ln := range strings.Split(string(out), "\n") {
		f := strings.Fields(ln)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, ferr := pprofValue(f[0])
		cum, cerr := pprofValue(f[3])
		if ferr != nil || cerr != nil {
			continue
		}
		rows = append(rows, diffRow{strings.Join(f[5:], " "), flat / total * 100, cum / total * 100})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].flat > rows[j].flat })
	return rows, nil
}

// pprofValue parses one `go tool pprof -top` value such as "-290000000ns"
// or "0": a number followed by its unit.
func pprofValue(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimRightFunc(s, func(r rune) bool { return r < '0' || r > '9' }), 64)
}

// goToolPprof runs `go tool pprof` with symbolization off (Go's profiles
// carry their symbols) and returns its standard output.
func goToolPprof(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-symbolize=none"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// profileFiles resolves a profdiff argument: a directory is a profile ring
// whose CPU entries MANIFEST.json lists; anything else is one pprof file.
func profileFiles(path string) ([]string, string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, "", err
	}
	if !st.IsDir() {
		return []string{path}, path, nil
	}
	raw, err := os.ReadFile(filepath.Join(path, "MANIFEST.json"))
	if err != nil {
		return nil, "", fmt.Errorf("reading ring manifest: %w", err)
	}
	var doc struct {
		Entries []prof.Entry `json:"entries"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, "", fmt.Errorf("decoding ring manifest: %w", err)
	}
	var files []string
	for _, e := range doc.Entries {
		if e.Kind == "cpu" {
			files = append(files, filepath.Join(path, e.File))
		}
	}
	if len(files) == 0 {
		return nil, "", fmt.Errorf("ring holds no cpu profiles")
	}
	return files, fmt.Sprintf("%s (%d cpu slices merged)", path, len(files)), nil
}

// truncFunc shortens long symbol names from the left, keeping the
// distinguishing suffix (package path prefixes repeat).
func truncFunc(name string, max int) string {
	if len(name) <= max {
		return name
	}
	return "…" + name[len(name)-max+1:]
}

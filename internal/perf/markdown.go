package perf

import (
	"fmt"
	"io"
	"strings"
	"time"

	"oij/internal/metrics"
)

// metric is one Markdown report column: a per-sample value and its
// rendering. Each column shows the median over the cell's repeats with
// the interquartile range in brackets.
type metric struct {
	name   string
	value  func(Sample) float64
	format func(float64) string
}

var (
	throughputMetric = metric{"throughput", func(s Sample) float64 { return s.ThroughputTPS }, fmtTPS}
	unbalanceMetric  = metric{"unbalancedness", func(s Sample) float64 { return s.Unbalancedness }, fmtRatio}
	latencyMetrics   = []metric{
		{"p50", func(s Sample) float64 { return float64(s.P50NS) }, fmtNS},
		{"p99", func(s Sample) float64 { return float64(s.P99NS) }, fmtNS},
		{"p99.9", func(s Sample) float64 { return float64(s.P999NS) }, fmtNS},
	}
	instrumentMetrics = []metric{
		{"effectiveness", func(s Sample) float64 { return s.Effectiveness }, fmtRatio},
		{"lookup share", func(s Sample) float64 { return s.LookupShare }, fmtRatio},
		{"match share", func(s Sample) float64 { return s.MatchShare }, fmtRatio},
	}
	pacedMetrics = []metric{
		{"epoch imbalance", func(s Sample) float64 { return s.Imbalance }, fmtRatio},
		{"smoothness", func(s Sample) float64 { return s.Smoothness }, fmtRatio},
	}
)

// axis is one cell parameter a sweep may vary.
type axis struct {
	name  string
	value func(Cell) string
}

var axes = []axis{
	{"engine", func(c Cell) string { return c.Engine }},
	{"threads", func(c Cell) string { return fmt.Sprint(c.Threads) }},
	{"window", func(c Cell) string { return fmtUS(c.WindowUS) }},
	{"lateness", func(c Cell) string { return fmtUS(c.LatenessUS) }},
	{"zipf", func(c Cell) string { return fmt.Sprint(c.ZipfS) }},
	{"keys", func(c Cell) string {
		if c.Keys == 0 {
			return "preset"
		}
		return fmt.Sprint(c.Keys)
	}},
	{"mode", func(c Cell) string { return c.Mode }},
	{"agg", func(c Cell) string {
		if c.Agg == "" {
			return "sum"
		}
		return c.Agg
	}},
}

// WriteMarkdown renders the report as one Markdown table per sweep, in
// spec order. Axes a sweep holds fixed go in a line above its table; every
// axis it varies gets a column, followed by the metrics its cells record,
// each as "median [q1, q3]" over the repeats.
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "# BENCH_%s\n\n", r.Tag)
	fmt.Fprintf(w, "Spec `%s`: n=%d tuples per cell, %d repeats. Recorded %s at git %.12s on %d CPUs (GOMAXPROCS %d, %s/%s, %s).\n",
		r.Spec.Name, r.Spec.N, r.Spec.Repeats, r.CreatedAt.Format("2006-01-02"), r.GitSHA,
		r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GOOS, r.Env.GOARCH, r.Env.GoVersion)
	bySweep := map[string][]Cell{}
	for _, c := range r.Cells {
		bySweep[c.Sweep] = append(bySweep[c.Sweep], c)
	}
	for _, sw := range r.Spec.Sweeps {
		cells := bySweep[sw.Name]
		if len(cells) == 0 {
			continue
		}
		var cols, fixed []string
		var colAxes []axis
		for _, a := range axes {
			first := a.value(cells[0])
			varies := false
			for _, c := range cells[1:] {
				if a.value(c) != first {
					varies = true
					break
				}
			}
			if varies || a.name == "engine" {
				colAxes = append(colAxes, a)
				cols = append(cols, a.name)
			} else {
				fixed = append(fixed, a.name+" "+first)
			}
		}
		ms := []metric{throughputMetric, unbalanceMetric}
		if sw.MeasureLatency {
			ms = append(ms, latencyMetrics...)
		}
		if sw.Instrument {
			ms = append(ms, instrumentMetrics...)
		}
		if sw.Paced {
			ms = append(ms, pacedMetrics...)
		}
		for _, m := range ms {
			cols = append(cols, m.name)
		}

		fmt.Fprintf(w, "\n## %s\n\n", sw.Name)
		mode := "unpaced"
		if sw.Paced {
			mode = "paced"
		}
		fmt.Fprintf(w, "Workload %s, %s; %s.\n\n", sw.Workload, mode, strings.Join(fixed, ", "))
		fmt.Fprintf(w, "| %s |\n", strings.Join(cols, " | "))
		fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(cols)))
		for _, c := range cells {
			row := make([]string, 0, len(cols))
			for _, a := range colAxes {
				row = append(row, a.value(c))
			}
			for _, m := range ms {
				vals := make([]float64, len(c.Samples))
				for i, s := range c.Samples {
					vals[i] = m.value(s)
				}
				sum := metrics.Summarize(vals)
				row = append(row, fmt.Sprintf("%s [%s, %s]", m.format(sum.Median), m.format(sum.Q1), m.format(sum.Q3)))
			}
			fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		}
	}
}

func fmtRatio(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtNS renders a nanosecond latency with three significant digits.
func fmtNS(v float64) string {
	d := time.Duration(v)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", v/1e6)
	default:
		return fmt.Sprintf("%.3gµs", v/1e3)
	}
}

// fmtUS renders an event-time span given in µs.
func fmtUS(us int64) string {
	switch {
	case us >= 1_000_000 && us%1_000_000 == 0:
		return fmt.Sprintf("%ds", us/1_000_000)
	case us >= 1_000 && us%1_000 == 0:
		return fmt.Sprintf("%dms", us/1_000)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

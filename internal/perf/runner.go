package perf

import (
	"fmt"
	"io"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/obs"
	"oij/internal/obs/timeline"
	"oij/internal/prof"
	"oij/internal/trace"
	"oij/internal/tuple"
)

// RunOptions configures one sweep execution.
type RunOptions struct {
	// Tag names the produced report (Report.Tag).
	Tag string
	// GitSHA records provenance (best effort; may be empty).
	GitSHA string
	// Repeats overrides the spec's repeat count when > 0.
	Repeats int
	// N overrides the spec's tuples-per-workload when > 0.
	N int
	// Progress, when non-nil, receives one line per completed sample.
	Progress io.Writer
	// Env overrides the captured environment fingerprint (tests skip the
	// calibration microbenchmark this way).
	Env *Env
	// FlightRecorder attaches an always-on flight recorder to every
	// measured engine, so the regression gate proves the recorder's cost
	// under full load is within the noise floor.
	FlightRecorder bool
	// Telemetry attaches the oijd telemetry layer to every measured run:
	// a per-joiner SpaceSaving hot-key sketch observed on the ingest path
	// (the per-tuple cost) and a background timeline sampler ticking at
	// the same per-second cadence oijd uses. The regression gate proves
	// their combined cost under full load is within the noise floor.
	Telemetry bool
	// Profiler attaches the continuous profiler to the whole sweep: a
	// capture ring in ProfileDir receives short periodic CPU slices and
	// heap/mutex/block snapshots while cells run, so the regression gate
	// proves the capturer's duty-cycle cost is within the noise floor —
	// and the ring it leaves behind feeds `oijbench profdiff`.
	Profiler bool
	// ProfileDir is the capture-ring directory when Profiler is set
	// (default "oij-prof-ring").
	ProfileDir string
}

// utilEpoch is the utilization sampling epoch of paced cells: short
// enough that one 100 ms hot-set rotation of the skewed preset spans
// several epochs, so the per-epoch imbalance sees each rotation.
const utilEpoch = 50 * time.Millisecond

// RunSpec executes every cell of the spec and assembles the report.
//
// Repeats run in rounds — every cell once, then every cell again — so
// slow machine-wide drift (thermal throttling, a noisy CI neighbour)
// spreads across all cells' samples instead of biasing whichever cell it
// coincided with. Workload generation is cached per distinct parameter set
// and shared across engines, thread counts, and repeats, so measured time
// is join time only.
func RunSpec(spec Spec, o RunOptions) (*Report, error) {
	if o.Repeats > 0 {
		spec.Repeats = o.Repeats
	}
	if o.N > 0 {
		spec.N = o.N
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}

	gen := map[string][]tuple.Tuple{}
	var fr *trace.Flight
	if o.FlightRecorder {
		fr = trace.NewFlight(512, "")
	}
	if o.Profiler {
		dir := o.ProfileDir
		if dir == "" {
			dir = "oij-prof-ring"
		}
		// A faster duty cycle than the oijd default so even a short gate
		// run leaves several CPU slices in the ring for profdiff.
		pc, err := prof.New(prof.Config{
			Dir:      dir,
			Period:   15 * time.Second,
			CPUSlice: time.Second,
			Retain:   64,
			Flight:   fr,
		})
		if err != nil {
			return nil, fmt.Errorf("perf: profiler: %w", err)
		}
		defer pc.Close()
		pc.CaptureNow("sweep-start")
	}
	for rep := 0; rep < spec.Repeats; rep++ {
		for i := range cells {
			sample, err := runCell(&cells[i], gen, fr, o.Telemetry)
			if err != nil {
				return nil, fmt.Errorf("perf: cell %s (repeat %d): %w", cells[i].ID, rep+1, err)
			}
			cells[i].Samples = append(cells[i].Samples, sample)
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "perf: [%d/%d] %-60s rep %d/%d  %10.0f tuples/s\n",
					i+1, len(cells), cells[i].ID, rep+1, spec.Repeats, sample.ThroughputTPS)
			}
		}
	}

	env := CaptureEnv()
	if o.Env != nil {
		env = *o.Env
	}
	return &Report{
		SchemaVersion: SchemaVersion,
		Tag:           o.Tag,
		CreatedAt:     time.Now().UTC(),
		GitSHA:        o.GitSHA,
		Env:           env,
		Spec:          spec,
		Cells:         cells,
	}, nil
}

// runCell measures one repeat of one cell.
func runCell(c *Cell, gen map[string][]tuple.Tuple, fr *trace.Flight, telemetry bool) (Sample, error) {
	wl, err := c.workloadConfig()
	if err != nil {
		return Sample{}, err
	}
	key := fmt.Sprintf("%s/n=%d/w=%d/l=%d/z=%g/u=%d", c.Workload, c.N, c.WindowUS, c.LatenessUS, c.ZipfS, c.Keys)
	tuples, ok := gen[key]
	if !ok {
		if tuples, err = wl.Generate(); err != nil {
			return Sample{}, err
		}
		gen[key] = tuples
	}

	fn := agg.Sum
	if c.Agg != "" {
		if fn, err = agg.Parse(c.Agg); err != nil {
			return Sample{}, err
		}
	}
	rc := harness.RunConfig{
		Engine:         c.Engine,
		Workload:       wl,
		Tuples:         tuples,
		Joiners:        c.Threads,
		Agg:            fn,
		Mode:           emitModes[c.Mode],
		Paced:          c.Paced,
		MeasureLatency: c.Latency,
		Instrument:     c.Instrumented,
		Flight:         fr,
	}
	if c.Paced {
		rc.UtilEpoch = utilEpoch
	}
	if telemetry {
		// Mirror oijd's telemetry layer: the sketch is observed per tuple
		// on the ingest path, and a background sampler merges shards into
		// timeline points while ingestion runs — the same scrape-vs-observe
		// contention the serving path sees.
		hk := obs.NewHotKeys(c.Threads, 16, func(h uint64) uint64 {
			return engine.HashKey(tuple.Key(h))
		})
		rc.HotKeys = hk
		tl := timeline.New([]string{"hotkey_top1", "hotkey_topk"})
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-tick.C:
					top1, topK := hk.TopShare(16)
					tl.Record(now, []float64{top1, topK})
				}
			}
		}()
		defer func() {
			close(stop)
			<-done
		}()
	}
	res, err := harness.Run(rc)
	if err != nil {
		return Sample{}, err
	}
	s := Sample{
		ThroughputTPS:  res.Throughput,
		ElapsedNS:      int64(res.Elapsed),
		Results:        res.Results,
		Unbalancedness: res.Unbalancedness,
	}
	if c.Latency {
		s.P50NS = res.Latency.Quantile(0.50)
		s.P99NS = res.Latency.Quantile(0.99)
		s.P999NS = res.Latency.Quantile(0.999)
	}
	if c.Instrumented {
		s.Effectiveness = res.Effectiveness
		s.LookupShare, s.MatchShare, _ = res.Breakdown.Fractions()
	}
	if res.Utilization != nil {
		s.Imbalance = res.Utilization.Imbalance()
		s.Smoothness = res.Utilization.Smoothness()
	}
	return s, nil
}

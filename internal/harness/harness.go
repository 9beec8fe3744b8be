// Package harness drives experiments: it builds engines by name, replays
// generated workloads (full speed or paced at the workload's arrival
// rate), samples utilization, and collects the metrics each figure of the
// paper reports.
package harness

import (
	"fmt"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/keyoij"
	"oij/internal/metrics"
	"oij/internal/mldb"
	"oij/internal/obs"
	"oij/internal/scaleoij"
	"oij/internal/splitjoin"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/workload"
)

// Engine variant names accepted by Build.
const (
	KeyOIJ          = "key-oij"
	ScaleOIJ        = "scale-oij"         // all optimizations
	ScaleOIJNoInc   = "scale-oij-noinc"   // without incremental aggregation
	ScaleOIJNoDyn   = "scale-oij-nodyn"   // without the dynamic schedule
	ScaleOIJStatic  = "scale-oij-static"  // time-travel index only
	ScaleOIJIncOnly = "scale-oij-inconly" // index + incremental, static schedule
	SplitJoin       = "splitjoin"
	OpenMLDB        = "openmldb"
	RefJoin         = "refjoin" // serial full-scan oracle (see refengine.go)
)

// Engines lists every variant Build accepts.
func Engines() []string {
	return []string{KeyOIJ, ScaleOIJ, ScaleOIJNoInc, ScaleOIJNoDyn, ScaleOIJStatic, ScaleOIJIncOnly, SplitJoin, OpenMLDB, RefJoin}
}

// Build constructs an engine variant by name.
func Build(name string, cfg engine.Config, sink engine.Sink) (engine.Engine, error) {
	switch name {
	case KeyOIJ:
		return keyoij.New(cfg, sink), nil
	case ScaleOIJ:
		return scaleoij.New(cfg, scaleoij.Default(), sink), nil
	case ScaleOIJNoInc:
		o := scaleoij.Default()
		o.Incremental = false
		return scaleoij.New(cfg, o, sink), nil
	case ScaleOIJNoDyn:
		o := scaleoij.Default()
		o.DynamicSchedule = false
		return scaleoij.New(cfg, o, sink), nil
	case ScaleOIJStatic:
		return scaleoij.New(cfg, scaleoij.Options{}, sink), nil
	case ScaleOIJIncOnly:
		return scaleoij.New(cfg, scaleoij.Options{Incremental: true}, sink), nil
	case SplitJoin:
		return splitjoin.New(cfg, sink), nil
	case OpenMLDB:
		return mldb.New(cfg, sink), nil
	case RefJoin:
		return newRefEngine(cfg, sink), nil
	default:
		return nil, fmt.Errorf("harness: unknown engine %q (known: %v)", name, Engines())
	}
}

// RunConfig describes one measured run.
type RunConfig struct {
	// Engine is a Build variant name.
	Engine string
	// Workload configures generation; its Window/Lateness also configure
	// the engine.
	Workload workload.Config
	// Tuples, when non-nil, replays this pre-generated sequence instead
	// of generating from Workload (sweeps reuse one generation).
	Tuples []tuple.Tuple
	// Joiners is the joiner thread count.
	Joiners int
	// Agg is the aggregation operator (default sum).
	Agg agg.Func
	// Mode is the emission mode (default OnArrival, the serving
	// semantics the paper benchmarks).
	Mode engine.EmitMode
	// Paced replays at Workload.ArrivalRate instead of full speed
	// (required for meaningful latency CDFs; ArrivalRate 0 still runs
	// unpaced).
	Paced bool
	// MeasureLatency stamps base tuples and collects a latency CDF.
	MeasureLatency bool
	// MaxLatencySamples caps per-joiner latency retention with
	// deterministic reservoir sampling (seeded by LatencySeed). 0 retains
	// every sample — fine for bounded replays, not for endless streams.
	MaxLatencySamples int
	// LatencySeed seeds the reservoir PRNG when MaxLatencySamples > 0.
	LatencySeed uint64
	// Instrument enables breakdown + effectiveness accounting.
	Instrument bool
	// UtilEpoch, when > 0, samples per-joiner utilization at this epoch
	// (Fig. 14).
	UtilEpoch time.Duration
	// Flight, when non-nil, receives the engine's flight-recorder events
	// (watermark advances etc.). Benchmarks pass one to measure the
	// recorder's overhead under load.
	Flight *trace.Flight
	// HotKeys, when non-nil, receives every ingested tuple's key — the
	// same per-tuple SpaceSaving observation oijd performs on its ingest
	// path. Benchmarks pass one to measure the sketch's overhead under
	// load (oijbench gate -telemetry).
	HotKeys *obs.HotKeys
}

// RunResult carries everything a figure needs.
type RunResult struct {
	Elapsed        time.Duration
	Throughput     float64 // input tuples per second
	Results        int64
	CDF            metrics.CDF // populated with MeasureLatency
	Breakdown      metrics.Breakdown
	Effectiveness  float64
	Unbalancedness float64
	Utilization    *metrics.Utilization
}

// Run executes one configured run and collects its metrics.
func Run(rc RunConfig) (RunResult, error) {
	tuples := rc.Tuples
	if tuples == nil {
		var err error
		tuples, err = rc.Workload.Generate()
		if err != nil {
			return RunResult{}, err
		}
	}

	cfg := engine.Config{
		Joiners:    rc.Joiners,
		Window:     rc.Workload.Window,
		Agg:        rc.Agg,
		Mode:       rc.Mode,
		Instrument: rc.Instrument,
		TrackBusy:  rc.UtilEpoch > 0,
		Flight:     rc.Flight,
	}
	var sink engine.Sink
	var lat *engine.LatencySink
	if rc.MeasureLatency {
		if rc.MaxLatencySamples > 0 {
			lat = engine.NewLatencySinkCapped(rc.Joiners, rc.MaxLatencySamples, rc.LatencySeed)
		} else {
			lat = engine.NewLatencySink(rc.Joiners, len(tuples)/2+1)
		}
		sink = lat
	} else {
		sink = &engine.CountSink{}
	}
	eng, err := Build(rc.Engine, cfg, sink)
	if err != nil {
		return RunResult{}, err
	}

	// Optional live utilization sampling. Per-joiner work is sampled as
	// processed-tuple deltas rather than busy nanoseconds: the imbalance
	// and smoothness metrics normalize within each epoch, and tuple
	// counts stay meaningful even when joiners time-share fewer physical
	// cores than Config.Joiners.
	var util *metrics.Utilization
	stopUtil := make(chan struct{})
	utilDone := make(chan struct{})
	if rc.UtilEpoch > 0 {
		util = metrics.NewUtilization(rc.Joiners, rc.UtilEpoch)
		go func() {
			defer close(utilDone)
			tick := time.NewTicker(rc.UtilEpoch)
			defer tick.Stop()
			prev := make([]int64, rc.Joiners)
			st := eng.Stats()
			for {
				select {
				case <-stopUtil:
					return
				case <-tick.C:
					for i := 0; i < rc.Joiners; i++ {
						cur := st.Processed[i].Load()
						util.AddBusy(i, time.Duration(cur-prev[i]))
						prev[i] = cur
					}
					util.Snapshot()
				}
			}
		}()
	} else {
		close(utilDone)
	}

	eng.Start()
	hk := rc.HotKeys
	start := time.Now()
	if rc.Paced && rc.Workload.ArrivalRate > 0 {
		pace(eng, tuples, rc.Workload.ArrivalRate, rc.MeasureLatency, hk)
	} else {
		if rc.MeasureLatency {
			for i := range tuples {
				if tuples[i].Side == tuple.Base {
					tuples[i].Arrival = time.Now()
				}
				if hk != nil {
					hk.Observe(uint64(tuples[i].Key))
				}
				eng.Ingest(tuples[i])
			}
		} else if hk != nil {
			for i := range tuples {
				hk.Observe(uint64(tuples[i].Key))
				eng.Ingest(tuples[i])
			}
		} else {
			for i := range tuples {
				eng.Ingest(tuples[i])
			}
		}
	}
	eng.Drain()
	elapsed := time.Since(start)
	close(stopUtil)
	<-utilDone

	st := eng.Stats()
	res := RunResult{
		Elapsed:        elapsed,
		Throughput:     metrics.Throughput(int64(len(tuples)), elapsed),
		Results:        st.Results.Load(),
		Unbalancedness: metrics.Unbalancedness(st.Loads()),
		Utilization:    util,
	}
	if rc.Instrument {
		res.Breakdown = st.MergedBreakdown()
		res.Effectiveness = st.MergedEffectiveness()
	}
	if lat != nil {
		res.CDF = lat.CDF()
	}
	return res, nil
}

// pace replays tuples at the given arrival rate (tuples per wall-clock
// second), stamping base arrivals when latency is measured. Pacing is
// checked every batch of 64 tuples to keep clock reads off the per-tuple
// path.
func pace(eng engine.Engine, tuples []tuple.Tuple, rate float64, stamp bool, hk *obs.HotKeys) {
	const batch = 64
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	next := time.Now()
	for i := range tuples {
		if i%batch == 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		if stamp && tuples[i].Side == tuple.Base {
			tuples[i].Arrival = time.Now()
		}
		if hk != nil {
			hk.Observe(uint64(tuples[i].Key))
		}
		eng.Ingest(tuples[i])
	}
}

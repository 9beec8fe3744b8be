package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"oij/internal/agg"
	"oij/internal/engine"
	"oij/internal/harness"
	"oij/internal/server"
	"oij/internal/sql"
	"oij/internal/window"
)

// options is the fully resolved daemon configuration; parseArgs builds one
// from an argument slice so the unit tests drive the exact code path main
// dispatches to.
type options struct {
	addr   string
	cfg    server.Config
	banner string // one-line description of the declared join, for startup output
}

// parseArgs resolves the oijd command line into a server configuration.
// Errors are suitable for printing (the FlagSet's own output goes to w).
func parseArgs(args []string, w io.Writer) (*options, error) {
	fs := flag.NewFlagSet("oijd", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr     = fs.String("addr", "127.0.0.1:7781", "listen address")
		sqlText  = fs.String("sql", "", "join declaration in the OpenMLDB dialect (overrides -pre/-fol/-lateness/-agg)")
		pre      = fs.Duration("pre", time.Minute, "window PRECEDING offset")
		fol      = fs.Duration("fol", 0, "window FOLLOWING offset")
		lateness = fs.Duration("lateness", time.Second, "out-of-order bound")
		aggName  = fs.String("agg", "sum", "aggregation: sum|count|avg|min|max")
		alg      = fs.String("algorithm", harness.ScaleOIJ, "engine variant")
		parallel = fs.Int("parallel", 4, "joiner goroutines")
		exact    = fs.Bool("exact", false, "emit on watermark (exact event-time results) instead of on arrival")
		wal      = fs.String("wal", "", "write-ahead log path: probe state survives restarts")
		walSync  = fs.String("wal-sync", "interval", "WAL durability: interval (fsync on the heartbeat cadence), always (fsync before each append), none (let the OS persist)")
		admin    = fs.String("admin", "", "observability address serving /metrics, /statusz, /debug/pprof (e.g. :7782)")

		replicateTo = fs.String("replicate-to", "",
			"replication listen address: stream the WAL to hot standbys that connect here (e.g. :7783; requires -wal)")
		standbyOf = fs.String("standby-of", "",
			"run as a hot standby of the primary at this replication address: apply its WAL, refuse writes, promote on lease expiry (requires -wal)")
		lease = fs.Duration("lease", 0,
			"failure-detection budget for automatic failover: the standby promotes after this long of silence, the primary self-fences at 3/4 of it (0 defaults to 3s when replication is on)")
		maxReplLag = fs.Int64("max-repl-lag", 0,
			"replication lag alarm in bytes: above it the primary records a lag_exceeded flight event and dumps the flight recorder (0 disables)")

		admission = fs.String("admission", server.AdmissionBlock,
			"overload admission policy when the ingest queue is full: block (senders wait), shed-probes (drop probe data, requests wait), reject (drop probes and NACK requests)")
		deadline = fs.Duration("deadline", 0,
			"per-request deadline: feature requests queued longer are answered with a deadline NACK (0 disables)")
		memCap = fs.Int64("mem-cap", 0,
			"buffered-probe cap: above it the server sheds oldest-window probes first (0 disables)")
		slowGrace = fs.Duration("slow-grace", 0,
			"slow-consumer grace before a non-draining session is evicted (0 keeps the server default of 5s)")

		traceSample = fs.Int("trace-sample", 0,
			"trace every Nth feature request through the pipeline stages, scrapeable at /tracez (0 disables sampling; the flight recorder stays on regardless)")
		traceRing = fs.Int("trace-ring", 0,
			"completed trace spans retained for /tracez (0 keeps the server default)")
		flightDump = fs.String("flight-dump", "",
			"file the flight recorder auto-dumps to on evictions, stalls, and memory-pressure transitions (empty disables auto-dump; /debug/flightrecorder always works)")

		sloWindow = fs.Duration("slo-window", 0,
			"trailing window the /healthz burn rates are computed over (0 keeps the server default of 30s)")
		sloP99 = fs.Duration("slo-p99", 0,
			"/healthz goes 503 while the window-averaged p99 request latency exceeds this (0 disables the dimension)")
		sloShedRate = fs.Float64("slo-shed-rate", 0,
			"/healthz goes 503 while shed+NACK events per second exceed this (0 disables)")
		sloLag = fs.Duration("slo-lag", 0,
			"/healthz goes 503 while the window-averaged watermark lag exceeds this (0 disables)")
		sloMemLevel = fs.Int("slo-mem-level", 0,
			"/healthz goes 503 while any sample in the window reaches this memory-pressure rung, 1 or 2 (0 disables)")

		profileDir = fs.String("profile-dir", "",
			"continuous-profiling ring directory: short CPU slices plus heap/mutex/block snapshots are captured periodically and on incidents, served at /profilez (empty disables profiling)")
		profilePeriod = fs.Duration("profile-period", 0,
			"continuous-profiling duty cycle: one capture round per period (0 keeps the default of 60s)")
		profileCPUSlice = fs.Duration("profile-cpu-slice", 0,
			"CPU profile slice length per round; must be shorter than -profile-period (0 keeps the default of 2s)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	o := &options{
		addr: *addr,
		cfg: server.Config{
			Algorithm:         *alg,
			WALPath:           *wal,
			WALSync:           *walSync,
			AdminAddr:         *admin,
			Admission:         *admission,
			RequestDeadline:   *deadline,
			MemCapProbes:      *memCap,
			SlowConsumerGrace: *slowGrace,
			TraceSampleN:      *traceSample,
			TraceRing:         *traceRing,
			FlightDumpPath:    *flightDump,
			SLOWindow:         *sloWindow,
			SLOP99:            *sloP99,
			SLOShedRate:       *sloShedRate,
			SLOWatermarkLag:   *sloLag,
			SLOMemLevel:       *sloMemLevel,
			ReplListenAddr:    *replicateTo,
			StandbyOf:         *standbyOf,
			ReplLease:         *lease,
			MaxReplLag:        *maxReplLag,
		},
	}
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"deadline", *deadline < 0},
		{"mem-cap", *memCap < 0},
		{"slow-grace", *slowGrace < 0},
		{"trace-sample", *traceSample < 0},
		{"trace-ring", *traceRing < 0},
		{"slo-p99", *sloP99 < 0},
		{"slo-shed-rate", *sloShedRate < 0},
		{"slo-lag", *sloLag < 0},
		{"lease", *lease < 0},
		{"max-repl-lag", *maxReplLag < 0},
		{"profile-period", *profilePeriod < 0},
		{"profile-cpu-slice", *profileCPUSlice < 0},
	} {
		if f.negative {
			return nil, fmt.Errorf("-%s must not be negative", f.name)
		}
	}
	if *parallel < 1 {
		return nil, fmt.Errorf("-parallel must be at least 1 (got %d)", *parallel)
	}
	if *sloMemLevel < 0 || *sloMemLevel > 2 {
		return nil, fmt.Errorf("-slo-mem-level must be 0, 1 or 2 (got %d)", *sloMemLevel)
	}
	if *replicateTo != "" && *standbyOf != "" {
		return nil, fmt.Errorf("-replicate-to and -standby-of are mutually exclusive (chained replication is not supported)")
	}
	if (*replicateTo != "" || *standbyOf != "") && *wal == "" {
		return nil, fmt.Errorf("replication requires a WAL (set -wal)")
	}
	if (*lease != 0 || *maxReplLag != 0) && *replicateTo == "" && *standbyOf == "" {
		return nil, fmt.Errorf("-lease and -max-repl-lag need -replicate-to or -standby-of")
	}
	if *profileDir == "" && (*profilePeriod != 0 || *profileCPUSlice != 0) {
		return nil, fmt.Errorf("-profile-* flags need -profile-dir")
	}
	if *profileDir != "" {
		period, slice := *profilePeriod, *profileCPUSlice
		if period == 0 {
			period = 60 * time.Second
		}
		if slice == 0 {
			slice = 2 * time.Second
		}
		if slice >= period {
			return nil, fmt.Errorf("-profile-cpu-slice %s must be shorter than -profile-period %s", slice, period)
		}
		o.cfg.ProfileDir = *profileDir
		o.cfg.ProfilePeriod = period
		o.cfg.ProfileCPUSlice = slice
	}
	if *sqlText != "" {
		q, err := sql.Parse(*sqlText)
		if err != nil {
			return nil, err
		}
		o.cfg.Engine.Window = q.Window
		o.cfg.Engine.Agg = q.Aggs[0].Func
		o.banner = fmt.Sprintf("%s ⋈ %s on %s over %s", q.BaseTable, q.ProbeTable, q.PartitionBy, q.Window)
	} else {
		fn, err := agg.Parse(*aggName)
		if err != nil {
			return nil, err
		}
		o.cfg.Engine.Window = window.Spec{
			Pre:      pre.Microseconds(),
			Fol:      fol.Microseconds(),
			Lateness: lateness.Microseconds(),
		}
		o.cfg.Engine.Agg = fn
	}
	o.cfg.Engine.Joiners = *parallel
	if *exact {
		o.cfg.Engine.Mode = engine.OnWatermark
	}
	return o, nil
}

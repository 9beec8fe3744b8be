// Command bench is the end-to-end serving benchmark. For each workload it
// builds cmd/oijd, runs it as a separate process, drives it over one
// loopback TCP connection (a sender and a reader goroutine), checks every
// answer, and prints every metric as "<workload> <metric> <value> <unit>".
// With -trace 1 it also runs the daemon with request tracing, replays each
// layer's public functions in-process, prints the per-layer metrics and
// writes a Chrome trace per workload. The last stdout line is a JSON
// summary. README.md defines the workloads and every metric.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options is one invocation's configuration. The flags set the first
// group; the run shape is fixed except in the self-test, which shrinks it.
type options struct {
	workloads []workloadDef
	seed      int64
	seconds   float64 // paced phase length
	trace     bool
	out       string

	setups     int           // daemon starts per run; setup_s is their median
	settle     time.Duration // paced warm-up whose samples are discarded
	prefillMin int           // tuples sent before settle, at least
	prefillRet float64       // ... and at least this many retention horizons
	satTuples  int           // tuples sent unpaced in the saturate phase
	idle       time.Duration // daemon idle-CPU window (traced runs only)
	engineIdle time.Duration // engine idle-CPU window
	replayN    int           // tuples per layer replay
	exactN     int           // tuples per 1-joiner oracle replay
	queueItems int
}

func defaultOptions() options {
	return options{
		workloads:  workloads,
		seed:       1,
		seconds:    20,
		out:        filepath.Join("bench", "out"),
		setups:     7,
		settle:     2 * time.Second,
		prefillMin: 500_000,
		prefillRet: 1.2,
		satTuples:  3_000_000,
		idle:       2 * time.Second,
		engineIdle: time.Second,
		replayN:    500_000,
		exactN:     100_000,
		queueItems: 10_000_000,
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := defaultOptions()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of steady, trickle, wide, durable")
	fs.Int64Var(&o.seed, "seed", o.seed, "input seed; seed 1 is checked against the pinned input fingerprints")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "length of the measured paced phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced daemon run and the layer replays, and reports per-layer metrics")
	fs.StringVar(&o.out, "out", o.out, "directory for JSON results, trace files and the daemon pidfile")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return o, fmt.Errorf("unknown workload %q", *name)
		}
		o.workloads = []workloadDef{w}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json names, in print
// order. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_tps", "tuples/s"},
	{"cpu_us_per_tuple", "us"},
	{"rss_peak_mb", "MiB"},
}

// latency is the request latency a client sees. It is printed on every
// run but is a per-layer metric, without a bound: on durable it moves
// between regimes set by the shared disk's write-back (p50 1.7 ms or
// 2.9 ms for whole sets of runs), further than any bound BENCHMARK.json
// may set (README.md, "Noise").
var latency = []metricDef{
	{"req_p50_us", "us"},
	{"req_p99_us", "us"},
}

var perLayer = append(append([]metricDef(nil), latency...), []metricDef{
	{"bench.gen_late_p99_us", "us"},
	{"bench.gen_cpu_us_per_tuple", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.result_roundtrip_ns", "ns"},
	{"wire.allocs_per_frame", "count"},
	{"wire.bytes_per_tuple", "B"},
	{"wire.walframe_encode_ns", "ns"},
	{"wire.walframe_decode_ns", "ns"},
	{"server.idle_cpu_cores", "cores"},
	{"server.loopback_ns_per_tuple", "ns"},
	{"server.overhead_ns_per_tuple", "ns"},
	{"server.alloc_objects_per_tuple", "count"},
	{"server.alloc_bytes_per_tuple", "B"},
	{"server.wal_recover_ns_per_frame", "ns"},
	{"server.wal_bytes_per_probe", "B"},
	{"engine.idle_cpu_cores", "cores"},
	{"engine.ingest_call_ns", "ns"},
	{"engine.push_parks_per_mtuple", "count"},
	{"scaleoij.ns_per_tuple", "ns"},
	{"scaleoij.allocs_per_tuple", "count"},
	{"scaleoij.bytes_per_tuple", "B"},
	{"scaleoij.unbalancedness", "ratio"},
	{"scaleoij.stale_answer_ratio", "ratio"},
	{"keyoij.ns_per_tuple", "ns"},
	{"keyoij.unbalancedness", "ratio"},
	{"timetravel.put_ns", "ns"},
	{"timetravel.scan_ns", "ns"},
	{"timetravel.matches_per_scan", "count"},
	{"timetravel.evict_ns", "ns"},
	{"timetravel.live_tuples", "count"},
	{"queue.spsc_ns_per_item", "ns"},
	{"trace.spans", "count"},
	{"trace.client_us", "us"},
	{"trace.stages_us", "us"},
	{"trace.encode_us", "us"},
	{"trace.residual_us", "us"},
	{"trace.ingest_us", "us"},
	{"trace.queue_wait_us", "us"},
	{"trace.dispatch_us", "us"},
	{"trace.probe_us", "us"},
	{"trace.aggregate_us", "us"},
	{"trace.emit_us", "us"},
	{"trace.tcp_write_us", "us"},
	{"trace.overhead_p50_us", "us"},
	{"trace.overhead_ingest_tps", "tuples/s"},
}...)

//go:embed fingerprints.json
var pinnedJSON []byte

// pinnedSeed is the seed whose input fingerprints fingerprints.json pins.
const pinnedSeed = 1

// metricJSON and resultJSON are the summary line's schema.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// run executes every selected workload and returns the exit code: 0 when
// every check passed, 1 when one failed or a run broke, 2 when the inputs
// no longer match their pinned fingerprints.
func run(o options, stdout, stderr io.Writer) int {
	// Daemons die with the benchmark on every path: normal return, panic
	// (this defer), and SIGINT/SIGTERM (the handler below).
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if s, ok := <-sig; ok {
			killAll()
			fmt.Fprintf(stderr, "bench: %v: daemons stopped\n", s)
			os.Exit(130)
		}
	}()

	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fail(err)
	}
	if err := guardPidfile(o.out); err != nil {
		return fail(err)
	}
	warnLoad(stderr)
	var pins map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return fail(fmt.Errorf("fingerprints.json: %w", err))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return fail(err)
	}

	// The summary carries the end-to-end metrics, or with -trace 1 the
	// per-layer ones.
	keep := endToEnd
	if o.trace {
		keep = perLayer
	}
	total := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range o.workloads {
		s, err := newStream(w, o.seed)
		if err != nil {
			return fail(err)
		}
		// Hashing the block is fixed single-thread work, so its time doubles
		// as a probe of how fast the host is running right now.
		t0 := time.Now()
		fp := s.fingerprint()
		fmt.Fprintf(stdout, "# %s inputs %s seed %d fingerprint %s (hashed in %.1f ms)\n",
			w.name, s.cfg.Name, o.seed, fp, time.Since(t0).Seconds()*1e3)
		if o.seed == pinnedSeed && pins[w.name] != fp {
			fmt.Fprintf(stderr, "bench: %s: inputs changed, re-baseline in a benchmark PR (fingerprint %s, pinned %q)\n", w.name, fp, pins[w.name])
			return 2
		}
		res := runWorkload(o, w, s, bin, stdout, stderr)
		if err := writeJSON(filepath.Join(o.out, w.name+".json"), res); err != nil {
			return fail(err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for _, d := range keep {
			if mj, ok := res.Metrics[d.name]; ok {
				name := d.name
				if len(o.workloads) > 1 {
					name = w.name + "." + name
				}
				total.Metrics[name] = mj
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload, prints its metric lines, and returns
// its result with every metric it printed.
func runWorkload(o options, w workloadDef, s *stream, bin string, stdout, stderr io.Writer) resultJSON {
	res := resultJSON{Metrics: map[string]metricJSON{}}
	brk := func(err error) resultJSON {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		res.Failed++
		res.Attempted = max(res.Attempted, res.Failed)
		return res
	}
	idle := time.Duration(0)
	if o.trace {
		idle = o.idle
	}
	cpu0, err0 := hostCPU()
	e2e, err := runE2E(o, w, s, bin, false, idle)
	if err != nil {
		return brk(err)
	}
	if cpu1, err1 := hostCPU(); err0 == nil && err1 == nil {
		steal := cpu1.stealShare(cpu0)
		fmt.Fprintf(stdout, "# %s host: %.1f%% of CPU time stolen by the hypervisor during the run\n", w.name, 100*steal)
		if steal > 0.05 {
			fmt.Fprintf(stderr, "bench: warning: %s: the hypervisor took %.0f%% of CPU time; results will be noisy\n", w.name, 100*steal)
		}
	}
	res.Attempted, res.Failed = e2e.attempted, e2e.fails.total()
	fmt.Fprintf(stdout, "# %s requests %d checked, failures: %s\n", w.name, e2e.attempted, e2e.fails)
	fmt.Fprintf(stdout, "# %s latency %d paced requests in %d windows of %s: p50s %s us, p99s %s us\n",
		w.name, e2e.samples, len(e2e.windowP50), latencyWindow, fmtList(e2e.windowP50), fmtList(e2e.windowP99))
	fmt.Fprintf(stdout, "# %s generator lateness p50 %.0f us, p99 %.0f us; saturate chunks %s tuples/s\n",
		w.name, e2e.genLateP50US, e2e.genLateP99US, fmtList(e2e.satRates))
	fmt.Fprintf(stdout, "# %s setup runs %s s; phases %s; peak RSS %.1f MiB after saturate\n",
		w.name, fmtList(e2e.setupS), strings.Join(e2e.phases, ", "), e2e.rssEndMiB)
	m := map[string]float64{
		"setup_s":          median(e2e.setupS),
		"ingest_tps":       e2e.ingestTPS,
		"req_p50_us":       e2e.p50US,
		"req_p99_us":       e2e.p99US,
		"cpu_us_per_tuple": e2e.cpuUSPerTup,
		"rss_peak_mb":      e2e.rssMiB,
	}
	defs := append(append([]metricDef(nil), endToEnd...), latency...)
	if o.trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
		if err := layerMetrics(o, w, s, bin, e2e, m, &res, stdout); err != nil {
			return brk(err)
		}
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return brk(fmt.Errorf("metric %s not measured (%v)", d.name, v))
		}
		fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return res
}

// layerMetrics adds the per-layer metrics: the untraced run's counters, a
// traced daemon run attributed per request, and the in-process replays.
// It writes the workload's trace file.
func layerMetrics(o options, w workloadDef, s *stream, bin string, e2e *e2eResult, m map[string]float64, res *resultJSON, stdout io.Writer) error {
	// The daemon's GC pause p99 is a histogram bucket bound, the same value
	// run after run, so it is printed here rather than reported as a metric.
	fmt.Fprintf(stdout, "# %s daemon gc pause p99 %.1f us at the end of the paced phase\n", w.name, e2e.gcPauseP99US)
	m["bench.gen_late_p99_us"] = e2e.genLateP99US
	m["bench.gen_cpu_us_per_tuple"] = e2e.genCPUUSPerTup
	m["wire.bytes_per_tuple"] = e2e.bytesPerTuple
	m["server.idle_cpu_cores"] = e2e.idleCores
	m["server.alloc_objects_per_tuple"] = e2e.allocObjs
	m["server.alloc_bytes_per_tuple"] = e2e.allocBytes
	m["scaleoij.stale_answer_ratio"] = e2e.staleRatio

	traced, err := runE2E(o, w, s, bin, true, 0)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	res.Attempted += traced.attempted
	res.Failed += traced.fails.total()
	lg := newTraceLog()
	br := traceRequests(traced, lg)
	if br.matched == 0 {
		return errors.New("traced run: no /tracez span matched a paced request")
	}
	// The metrics are means, which add up to the client span and vary
	// continuously; the medians are printed.
	m["trace.spans"] = float64(br.matched)
	for name, v := range br.meanUS {
		// wal_append is the last append's cost, 0 without a WAL: a constant,
		// so it stays in the trace and the summary below, not in metrics.
		if name != "wal_append" {
			m["trace."+name+"_us"] = v
		}
	}
	m["trace.overhead_p50_us"] = traced.p50US - e2e.p50US
	m["trace.overhead_ingest_tps"] = traced.ingestTPS - e2e.ingestTPS
	fmt.Fprintf(stdout, "# %s trace: %d sampled requests matched, %d with stages longer than the client span\n", w.name, br.matched, br.negResidual)
	for _, stat := range []struct {
		name string
		us   map[string]float64
	}{{"median", br.medianUS}, {"mean", br.meanUS}} {
		fmt.Fprintf(stdout, "# %s trace: %s self time per stage (us):", w.name, stat.name)
		for _, name := range append(append([]string(nil), stageNames...), "encode", "residual") {
			fmt.Fprintf(stdout, " %s=%.1f", name, stat.us[name])
		}
		fmt.Fprintf(stdout, "; sum of stages %.1f, client %.1f\n", stat.us["stages"], stat.us["client"])
	}
	fmt.Fprintf(stdout, "# %s trace: median sum of stages %.1f us against req_p50_us %.1f us\n", w.name, br.medianUS["stages"], e2e.p50US)
	fmt.Fprintf(stdout, "# %s trace: tracing overhead %+.1f us on req_p50_us, %+.0f tuples/s on ingest_tps\n",
		w.name, traced.p50US-e2e.p50US, traced.ingestTPS-e2e.ingestTPS)

	ts := s.replayTuples(o.replayN)
	if err := replayWire(ts, lg, m); err != nil {
		return err
	}
	if err := replayWALFrames(ts, lg, m); err != nil {
		return err
	}
	walDir, err := os.MkdirTemp(o.out, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	walPath := ""
	if w.wal {
		walPath = filepath.Join(walDir, "loopback-wal")
	}
	if m["server.loopback_ns_per_tuple"], err = replayLoopback(serverConfig(s, walPath), ts); err != nil {
		return err
	}
	if err := replayRecovery(s, ts, walDir, m); err != nil {
		return err
	}
	if err := replayEngineIdle(s, o.engineIdle, m); err != nil {
		return err
	}
	compared, failed, err := replayEngines(s, ts, s.replayTuples(o.exactN), lg, m)
	if err != nil {
		return err
	}
	res.Attempted += compared
	res.Failed += failed
	fmt.Fprintf(stdout, "# %s 1-joiner oracle replays: %d answers compared, %d differ\n", w.name, compared, failed)
	m["server.overhead_ns_per_tuple"] = m["server.loopback_ns_per_tuple"] - m["scaleoij.ns_per_tuple"]
	replayTimeTravel(s, ts, lg, m)
	replayQueue(o.queueItems, lg, m)
	return lg.write(filepath.Join(o.out, "trace-"+w.name+".json"))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuTicks is the host's aggregate /proc/stat CPU time.
type cpuTicks struct{ total, steal int64 }

func hostCPU() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user and nice.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// stealShare is the share of CPU time the hypervisor gave to other guests
// since prev.
func (t cpuTicks) stealShare(prev cpuTicks) float64 {
	if t.total <= prev.total {
		return 0
	}
	return float64(t.steal-prev.steal) / float64(t.total-prev.total)
}

// warnLoad warns when other work is likely to distort the numbers.
func warnLoad(stderr io.Writer) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return
	}
	if load, err := strconv.ParseFloat(f[0], 64); err == nil && load > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(stderr, "bench: warning: 1-minute load average %.2f exceeds %d CPUs / 2; results will be noisy\n", load, runtime.NumCPU())
	}
}

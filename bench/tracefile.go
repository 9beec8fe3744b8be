package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// chromeEvent is one Chrome trace-event: "X" a complete span, "C" a
// counter, "M" metadata. Times are µs since the Unix epoch.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace tracks (pids): daemon requests, one track per request id; and
// layer replays, one track per layer.
const (
	pidRequests = 1
	pidLayers   = 2
)

// traceLog keeps trace events in memory until the run ends.
type traceLog struct {
	events    []chromeEvent
	layerTIDs int64
}

func newTraceLog() *traceLog {
	lg := &traceLog{}
	for pid, name := range map[int]string{pidRequests: "oijd requests (sampled 1/64)", pidLayers: "layer replays (1 call in 64)"} {
		lg.events = append(lg.events, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	return lg
}

// span records a complete event; start is wall-clock ns.
func (lg *traceLog) span(pid int, tid int64, name string, startWallNS, durNS int64, args map[string]any) {
	lg.events = append(lg.events, chromeEvent{Name: name, Ph: "X", PID: pid, TID: tid,
		TS: float64(startWallNS) / 1e3, Dur: float64(durNS) / 1e3, Args: args})
}

func (lg *traceLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{lg.events, "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// callSpans samples a layer replay: one span per 64 calls, at most
// maxLayerSpans of them so a long replay keeps the file small and its
// timing unperturbed, and a count of all calls as a counter event when
// done. A nil *callSpans records nothing.
type callSpans struct {
	lg    *traceLog
	tid   int64
	name  string
	spans int
}

const maxLayerSpans = 4096

func (lg *traceLog) calls(name string) *callSpans {
	if lg == nil {
		return nil
	}
	lg.layerTIDs++
	return &callSpans{lg: lg, tid: lg.layerTIDs, name: name}
}

// sampled reports whether call i gets a span.
func (c *callSpans) sampled(i int) bool {
	return c != nil && i%sampleEvery == 0 && c.spans < maxLayerSpans
}

func (c *callSpans) add(t0 int64) {
	c.lg.span(pidLayers, c.tid, c.name, wallEpoch+t0, mono()-t0, nil)
	c.spans++
}

// done records the call count.
func (c *callSpans) done(n int) {
	if c == nil {
		return
	}
	c.lg.events = append(c.lg.events, chromeEvent{Name: c.name, Ph: "C", PID: pidLayers, TID: c.tid,
		TS: float64(wallEpoch+mono()) / 1e3, Args: map[string]any{"calls": n}})
}

// stageNames are the daemon's span stages in pipeline order.
var stageNames = []string{"ingest", "queue_wait", "dispatch", "probe", "aggregate", "emit", "wal_append", "tcp_write"}

// requestBreakdown is the traced run's per-request attribution: median and
// mean self time of each stage, of "encode" and "residual", and of the
// "stages" sum and the "client" span, over the matched requests. The
// means add up: Σ stage means + residual mean = client mean.
type requestBreakdown struct {
	matched     int
	negResidual int // requests whose stages outlast their client span
	medianUS    map[string]float64
	meanUS      map[string]float64
}

// traceRequests matches the daemon's sampled spans to paced requests by
// wire request id and records each as a client span (scheduled send →
// result) whose children are the eight daemon stages and a residual equal
// to the client span minus Σ stages; the bench-side encode sits inside the
// residual. Children are laid back to back from the client start, residual
// first, so their durations add up to the client span exactly.
func traceRequests(res *e2eResult, lg *traceLog) requestBreakdown {
	ss := res.ss
	samples := map[string][]float64{}
	var b requestBreakdown
	for _, sp := range res.spans {
		id := int(sp.ReqID)
		if !sp.Complete || id < ss.pacedLo || id >= ss.pacedHi || ss.recvNS[id-ss.pacedLo] == 0 {
			continue
		}
		due := ss.pacedStartNS + ss.dueNS(id)
		client := ss.recvNS[id-ss.pacedLo] - due
		var sum int64
		for _, name := range stageNames {
			sum += sp.Stages[name]
		}
		residual := client - sum
		b.matched++
		tid := int64(id)
		at := wallEpoch + due
		lg.span(pidRequests, tid, "client", at, client, map[string]any{"req_id": id, "key": sp.Key, "daemon_admit_wall_ns": sp.StartWallNS})
		resDur := max(residual, 0)
		if residual < 0 {
			b.negResidual++
		}
		lg.span(pidRequests, tid, "residual", at, resDur, map[string]any{"residual_ns": residual})
		if enc, ok := ss.encode[id]; ok {
			d := enc[1] - enc[0]
			lg.span(pidRequests, tid, "encode", at, min(d, resDur), nil)
			samples["encode"] = append(samples["encode"], float64(d)/1e3)
		}
		at += resDur
		for _, name := range stageNames {
			d := sp.Stages[name]
			lg.span(pidRequests, tid, name, at, d, nil)
			at += d
			samples[name] = append(samples[name], float64(d)/1e3)
		}
		samples["residual"] = append(samples["residual"], float64(residual)/1e3)
		samples["stages"] = append(samples["stages"], float64(sum)/1e3)
		samples["client"] = append(samples["client"], float64(client)/1e3)
	}
	b.medianUS, b.meanUS = map[string]float64{}, map[string]float64{}
	for name, xs := range samples {
		b.medianUS[name] = median(xs)
		b.meanUS[name] = mean(xs)
	}
	return b
}

// SLO health evaluation: every epoch tick the sampler re-scores a small
// set of burn-rate dimensions against operator thresholds and publishes a
// verdict that /healthz serves as 200 (healthy) or 503 (unhealthy) plus a
// JSON detail document. The inputs are trailing-window statistics over the
// telemetry timeline — the same series /timeline serves — so the health
// verdict is explainable by pointing at the curves that tripped it.
//
// Every state transition lands in the flight recorder (component "slo"):
// going unhealthy records the breached-dimension bitmask and triggers an
// incident dump, recovering records how long the outage lasted. A load
// balancer polling /healthz therefore leaves a correlated event trail.
package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"oij/internal/trace"
)

// Breached-dimension bits (the a-payload of an slo_unhealthy flight event).
const (
	sloBitP99 = 1 << iota
	sloBitShed
	sloBitLag
	sloBitMem
)

// sloShedSeries are the overload counters whose per-second rates sum into
// the shed/NACK dimension: every way the server refuses work.
var sloShedSeries = []string{
	"oij_admission_shed_probes_total:rate",
	"oij_admission_rejected_total:rate",
	"oij_deadline_rejected_total:rate",
	"oij_mem_shed_probes_total:rate",
}

// SLODimension is one scored health dimension in the /healthz document.
type SLODimension struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Unit      string  `json:"unit"`
	Breached  bool    `json:"breached"`
}

// HealthStatus is the /healthz document: the verdict, the window it was
// computed over, and the per-dimension evidence.
type HealthStatus struct {
	Healthy          bool           `json:"healthy"`
	WindowSeconds    float64        `json:"window_seconds"`
	Epoch            uint64         `json:"epoch"`
	Transitions      uint64         `json:"transitions"`
	UnhealthySeconds float64        `json:"unhealthy_seconds,omitempty"`
	Dimensions       []SLODimension `json:"dimensions"`
}

// sloEvaluator scores the health dimensions once per epoch (sampler
// goroutine) and caches the verdict for /healthz, which must answer
// instantly even when the server is drowning — that is exactly when the
// load balancer needs the 503.
type sloEvaluator struct {
	s *Server

	mu             sync.Mutex
	cur            HealthStatus
	unhealthySince time.Time
	transitions    uint64
}

func newSLOEvaluator(s *Server) *sloEvaluator {
	e := &sloEvaluator{s: s}
	e.cur = HealthStatus{Healthy: true}
	return e
}

// enabled reports whether any dimension has a threshold configured.
func (e *sloEvaluator) enabled() bool {
	c := e.s.cfg
	return c.SLOP99 > 0 || c.SLOShedRate > 0 || c.SLOWatermarkLag > 0 || c.SLOMemLevel > 0
}

// evaluate re-scores every configured dimension over the trailing SLO
// window and publishes the verdict. Sampler goroutine only.
func (e *sloEvaluator) evaluate(now time.Time, epoch uint64) {
	c := e.s.cfg
	tl := e.s.o.timeline
	window := c.SLOWindow
	st := HealthStatus{Healthy: true, WindowSeconds: window.Seconds(), Epoch: epoch}
	var mask uint64

	if c.SLOP99 > 0 {
		// Burn rate: the window average of the per-epoch interval p99, so
		// one slow epoch inside an otherwise-healthy window does not flap
		// the verdict.
		avg, _, ok := tl.WindowStats("oij_request_latency_seconds:p99", window, now)
		d := SLODimension{Name: "p99_latency", Threshold: c.SLOP99.Seconds(), Unit: "s"}
		if ok {
			d.Value = avg
			d.Breached = avg > d.Threshold
		}
		if d.Breached {
			mask |= sloBitP99
		}
		st.Dimensions = append(st.Dimensions, d)
	}
	if c.SLOShedRate > 0 {
		var sum float64
		var any bool
		for _, name := range sloShedSeries {
			if avg, _, ok := tl.WindowStats(name, window, now); ok {
				sum += avg
				any = true
			}
		}
		d := SLODimension{Name: "shed_rate", Threshold: c.SLOShedRate, Unit: "events/s"}
		if any {
			d.Value = sum
			d.Breached = sum > d.Threshold
		}
		if d.Breached {
			mask |= sloBitShed
		}
		st.Dimensions = append(st.Dimensions, d)
	}
	if c.SLOWatermarkLag > 0 {
		avg, _, ok := tl.WindowStats("oij_watermark_lag_us", window, now)
		d := SLODimension{Name: "watermark_lag", Threshold: float64(c.SLOWatermarkLag.Microseconds()), Unit: "us"}
		if ok {
			d.Value = avg
			d.Breached = avg > d.Threshold
		}
		if d.Breached {
			mask |= sloBitLag
		}
		st.Dimensions = append(st.Dimensions, d)
	}
	if c.SLOMemLevel > 0 {
		// The degradation rung is a step function, not a rate: any sample
		// at or above the configured rung inside the window breaches, and
		// health returns only once the window is clean again.
		_, max, ok := tl.WindowStats("oij_mem_pressure_level", window, now)
		d := SLODimension{Name: "mem_pressure", Threshold: float64(c.SLOMemLevel), Unit: "level"}
		if ok {
			d.Value = max
			d.Breached = max >= d.Threshold
		}
		if d.Breached {
			mask |= sloBitMem
		}
		st.Dimensions = append(st.Dimensions, d)
	}
	st.Healthy = mask == 0

	e.mu.Lock()
	was := e.cur.Healthy
	if was && !st.Healthy {
		e.unhealthySince = now
		e.transitions++
	} else if !was && st.Healthy {
		e.transitions++
	}
	if !st.Healthy && !e.unhealthySince.IsZero() {
		st.UnhealthySeconds = now.Sub(e.unhealthySince).Seconds()
	}
	st.Transitions = e.transitions
	e.cur = st
	e.mu.Unlock()

	if was && !st.Healthy {
		e.s.flight.Record(trace.CompSLO, trace.EvSLOUnhealthy, mask, epoch)
		e.s.incident("slo-unhealthy")
	} else if !was && st.Healthy {
		e.s.flight.Record(trace.CompSLO, trace.EvSLORecovered,
			uint64(now.Sub(e.unhealthySince)), epoch)
	}
}

// Status returns the most recent verdict.
func (e *sloEvaluator) Status() HealthStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.cur
	st.Dimensions = append([]SLODimension(nil), e.cur.Dimensions...)
	return st
}

// serveHealthz answers 200 while the SLO verdict is healthy and 503 while
// it is not, with the full dimension detail as the body either way. With no
// thresholds configured it is a plain liveness check (always 200).
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.slo.Status()
	w.Header().Set("Content-Type", "application/json")
	if !st.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
